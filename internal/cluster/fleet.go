package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"coterie/internal/obs"
)

// This file is the fleet-aggregation side of cluster observability: each
// node can scrape its peers' /metrics and serve the merged view at
// /cluster, so any node answers "is the fleet meeting its frame budget
// right now?" without an external collector. Scrapes are bounded by a
// per-node timeout and a failed node is stale-marked in the output rather
// than hanging or hiding the rest of the fleet.

// DefaultScrapeTimeout bounds one node's /metrics scrape. A node slower
// than this is reported stale; the fleet view must come back fast enough
// to be a live dashboard.
const DefaultScrapeTimeout = 2 * time.Second

// FleetConfig names the admin endpoints of the whole fleet.
type FleetConfig struct {
	// Self is this node's own admin address as it appears in Admins
	// (marks the serving node in the output; empty is fine).
	Self string
	// Admins is every node's admin address, including Self's.
	Admins []string
}

// FleetNode is one node's slice of the fleet view. Stale nodes carry
// only Addr, Stale and Err: their numbers would be from before the
// failure and merging them would silently misstate fleet totals.
type FleetNode struct {
	Addr  string `json:"addr"`
	Self  bool   `json:"self,omitempty"`
	Stale bool   `json:"stale"`
	Err   string `json:"err,omitempty"`

	// From /metrics: serving volume, store residency, and the cluster
	// serving mix (how much work crossed node boundaries).
	FramesServed     int64 `json:"frames_served"`
	FramesRendered   int64 `json:"frames_rendered"`
	StoreBytes       int64 `json:"store_bytes"`
	SessionsActive   int64 `json:"sessions_active"`
	PeerFrames       int64 `json:"peer_frames"`
	PeerFailovers    int64 `json:"peer_failovers"`
	PeerFramesServed int64 `json:"peer_frames_served"`
	PeersUp          int64 `json:"peers_up"`
	DeadlineMet      int64 `json:"deadline_met"`
	DeadlineMisses   int64 `json:"deadline_misses"`

	// DeadlineCompliance is deadline_met over all deadline-tracked
	// serves; -1 when the node saw no deadline traffic.
	DeadlineCompliance float64 `json:"deadline_compliance"`
}

// FleetView is the merged fleet state served at /cluster.
type FleetView struct {
	Self  string      `json:"self,omitempty"`
	Nodes []FleetNode `json:"nodes"`

	// Totals over the live (non-stale) nodes.
	NodesUp        int   `json:"nodes_up"`
	NodesStale     int   `json:"nodes_stale"`
	FramesServed   int64 `json:"frames_served"`
	StoreBytes     int64 `json:"store_bytes"`
	PeerFrames     int64 `json:"peer_frames"`
	PeerFailovers  int64 `json:"peer_failovers"`
	DeadlineMet    int64 `json:"deadline_met"`
	DeadlineMisses int64 `json:"deadline_misses"`

	// DeadlineCompliance summarises the fleet: deadline_met over all live
	// nodes' deadline-tracked serves; -1 with no deadline traffic.
	DeadlineCompliance float64 `json:"deadline_compliance"`
}

// Scrape collects the fleet view: every admin endpoint is scraped
// concurrently under the per-node timeout, failures are stale-marked,
// and the totals merge only live nodes. Node order follows cfg.Admins.
func Scrape(cfg FleetConfig) FleetView {
	view := FleetView{Self: cfg.Self, Nodes: make([]FleetNode, len(cfg.Admins))}
	var wg sync.WaitGroup
	for i, addr := range cfg.Admins {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			view.Nodes[i] = scrapeNode(addr, addr == cfg.Self)
		}(i, addr)
	}
	wg.Wait()

	for _, n := range view.Nodes {
		if n.Stale {
			view.NodesStale++
			continue
		}
		view.NodesUp++
		view.FramesServed += n.FramesServed
		view.StoreBytes += n.StoreBytes
		view.PeerFrames += n.PeerFrames
		view.PeerFailovers += n.PeerFailovers
		view.DeadlineMet += n.DeadlineMet
		view.DeadlineMisses += n.DeadlineMisses
	}
	view.DeadlineCompliance = compliance(view.DeadlineMet, view.DeadlineMisses)
	return view
}

// compliance is met over all deadline-tracked serves; -1 when there were
// none.
func compliance(met, misses int64) float64 {
	if total := met + misses; total > 0 {
		return float64(met) / float64(total)
	}
	return -1
}

// scrapeNode fetches one node's /metrics; a failure stale-marks the node.
func scrapeNode(addr string, self bool) FleetNode {
	n := FleetNode{Addr: addr, Self: self, DeadlineCompliance: -1}
	ctx, cancel := context.WithTimeout(context.Background(), DefaultScrapeTimeout)
	defer cancel()

	var snap obs.Snapshot
	if err := getJSON(ctx, addr, "/metrics", &snap); err != nil {
		n.Stale, n.Err = true, err.Error()
		return n
	}
	n.FramesServed = snap.Counters["server.frames_served"]
	n.FramesRendered = snap.Counters["server.frames_rendered"]
	n.PeerFrames = snap.Counters["server.peer_frames"]
	n.PeerFailovers = snap.Counters["server.peer_failovers"]
	n.PeerFramesServed = snap.Counters["server.peer_frames_served"]
	n.DeadlineMet = snap.Counters["server.deadline_met"]
	n.DeadlineMisses = snap.Counters["server.deadline_misses"]
	n.StoreBytes = snap.Gauges["server.store_bytes"]
	n.SessionsActive = snap.Gauges["server.sessions_active"]
	n.PeersUp = snap.Gauges["cluster.peers_up"]
	n.DeadlineCompliance = compliance(n.DeadlineMet, n.DeadlineMisses)
	return n
}

// getJSON fetches one admin endpoint into out under the scrape context.
func getJSON(ctx context.Context, addr, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: scrape %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// FleetHandler serves the merged fleet view as JSON; register it on the
// admin mux at /cluster. Every request re-scrapes, so the view is live;
// the per-node timeout bounds the whole request.
func FleetHandler(cfg FleetConfig) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Scrape(cfg))
	}
}
