package cluster

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coterie/internal/obs"
)

// adminNode serves a real obs.AdminMux over a registry with some serving
// history (frames total, met of them within their deadline, the rest
// late), returning its host:port address.
func adminNode(t *testing.T, frames, met int64) string {
	t.Helper()
	r := obs.NewRegistry()
	r.Counter("server.frames_served").Add(frames)
	r.Counter("server.frames_rendered").Add(frames)
	r.Counter("server.deadline_met").Add(met)
	r.Counter("server.deadline_misses").Add(frames - met)
	r.Gauge("server.store_bytes").Set(frames * 1000)
	ts := httptest.NewServer(obs.AdminMux(r))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestFleetScrapeWithDeadPeer: a dead node is stale-marked without
// hanging the scrape, and the fleet totals cover exactly the live nodes —
// the merged frame count is the sum of the per-node /metrics counters.
func TestFleetScrapeWithDeadPeer(t *testing.T) {
	a := adminNode(t, 10, 10) // every deadline met
	b := adminNode(t, 5, 0)   // every deadline missed

	// A listener that is already closed: connection refused, promptly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	start := time.Now()
	view := Scrape(FleetConfig{Self: a, Admins: []string{a, dead, b}})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("scrape with dead peer took %v", elapsed)
	}

	if view.NodesUp != 2 || view.NodesStale != 1 {
		t.Fatalf("nodes up/stale = %d/%d, want 2/1", view.NodesUp, view.NodesStale)
	}
	if len(view.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3 (stale nodes must still be listed)", len(view.Nodes))
	}
	if !view.Nodes[1].Stale || view.Nodes[1].Err == "" {
		t.Errorf("dead node not stale-marked: %+v", view.Nodes[1])
	}
	if view.Nodes[1].Addr != dead {
		t.Errorf("node order does not follow config: %q at index 1, want %q", view.Nodes[1].Addr, dead)
	}
	if !view.Nodes[0].Self {
		t.Error("self node not marked")
	}

	// Fleet totals are the sum of the live nodes' /metrics counters.
	if view.FramesServed != 15 {
		t.Errorf("fleet frames served = %d, want 15", view.FramesServed)
	}
	if view.StoreBytes != 15_000 {
		t.Errorf("fleet store bytes = %d, want 15000", view.StoreBytes)
	}
	for i, want := range []int64{10, 0, 5} {
		if got := view.Nodes[i].FramesServed; !view.Nodes[i].Stale && got != want {
			t.Errorf("node %d frames served = %d, want %d", i, got, want)
		}
	}

	// Deadline compliance merges the live nodes' counters only: 10 met of
	// 15 deadline-tracked serves. The stale node reads -1, not 0.
	if view.DeadlineMet != 10 || view.DeadlineMisses != 5 {
		t.Errorf("fleet deadlines met/missed = %d/%d, want 10/5", view.DeadlineMet, view.DeadlineMisses)
	}
	if got, want := view.DeadlineCompliance, 10.0/15.0; got != want {
		t.Errorf("fleet deadline compliance = %v, want %v", got, want)
	}
	for i, want := range []float64{1, -1, 0} {
		if got := view.Nodes[i].DeadlineCompliance; got != want {
			t.Errorf("node %d deadline compliance = %v, want %v", i, got, want)
		}
	}

	// No deadline traffic at all: compliance is -1, not a ratio of zeros.
	idle := Scrape(FleetConfig{Admins: []string{adminNode(t, 0, 0)}})
	if idle.NodesUp != 1 || idle.DeadlineCompliance != -1 || idle.Nodes[0].DeadlineCompliance != -1 {
		t.Errorf("no deadline traffic: nodes up %d, fleet compliance %v, node compliance %v; want 1, -1, -1",
			idle.NodesUp, idle.DeadlineCompliance, idle.Nodes[0].DeadlineCompliance)
	}
}

// TestFleetHandler: the /cluster endpoint serves the merged view as JSON.
func TestFleetHandler(t *testing.T) {
	a := adminNode(t, 3, 3)
	h := FleetHandler(FleetConfig{Self: a, Admins: []string{a}})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var view FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("bad /cluster JSON: %v", err)
	}
	if view.NodesUp != 1 || view.FramesServed != 3 || view.Self != a {
		t.Errorf("view = %+v", view)
	}
}
