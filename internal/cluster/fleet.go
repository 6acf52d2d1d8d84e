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
// node can scrape its peers' admin endpoints (/metrics, /qoe, /slo) and
// serve the merged view at /cluster, so any node answers "is the fleet
// meeting its SLO right now?" without an external collector. Scrapes are
// bounded by a per-node timeout and a failed node is stale-marked in the
// output rather than hanging or hiding the rest of the fleet.

// DefaultScrapeTimeout bounds one node's scrape (all three endpoints
// together). A node slower than this is reported stale; the fleet view
// must come back fast enough to be a live dashboard.
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

	// From /slo: the node's error-budget burn.
	SLO obs.SLOSnapshot `json:"slo"`

	// From /qoe: the node's windowed QoE over its recorded spans (server
	// nodes record hop spans only, so this is mostly interesting on
	// client admin endpoints; kept raw for obsreport).
	QoE *obs.QoESnapshot `json:"qoe,omitempty"`
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

	// DeadlineCompliance and BurnRate1m/5m summarise the fleet: the
	// compliance ratio over all live nodes' deadline-tracked serves, and
	// the frame-weighted mean burn rates. Compliance is -1 with no
	// deadline traffic.
	DeadlineCompliance float64 `json:"deadline_compliance"`
	BurnRate1m         float64 `json:"burn_rate_1m"`
	BurnRate5m         float64 `json:"burn_rate_5m"`
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

	var sloFrames1m, sloBad1m, sloFrames5m, sloBad5m int64
	var budget1m, budget5m float64
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
		sloFrames1m += n.SLO.Short.Frames
		sloBad1m += n.SLO.Short.BadFrames
		sloFrames5m += n.SLO.Long.Frames
		sloBad5m += n.SLO.Long.BadFrames
		if n.SLO.Objective > 0 && n.SLO.Objective < 1 {
			budget1m = 1 - n.SLO.Objective
			budget5m = budget1m
		}
	}
	if total := view.DeadlineMet + view.DeadlineMisses; total > 0 {
		view.DeadlineCompliance = float64(view.DeadlineMet) / float64(total)
	} else {
		view.DeadlineCompliance = -1
	}
	if sloFrames1m > 0 && budget1m > 0 {
		view.BurnRate1m = (float64(sloBad1m) / float64(sloFrames1m)) / budget1m
	}
	if sloFrames5m > 0 && budget5m > 0 {
		view.BurnRate5m = (float64(sloBad5m) / float64(sloFrames5m)) / budget5m
	}
	return view
}

// scrapeNode fetches one node's /metrics, /slo and /qoe. The first
// failure stale-marks the node; /qoe and /slo tolerate absence on older
// nodes only insofar as a missing endpoint still answers 200 from the
// admin mux — a transport failure is a real failure.
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
	if total := n.DeadlineMet + n.DeadlineMisses; total > 0 {
		n.DeadlineCompliance = float64(n.DeadlineMet) / float64(total)
	}

	if err := getJSON(ctx, addr, "/slo", &n.SLO); err != nil {
		n.Stale, n.Err = true, err.Error()
		return n
	}
	var qoe obs.QoESnapshot
	if err := getJSON(ctx, addr, "/qoe", &qoe); err != nil {
		n.Stale, n.Err = true, err.Error()
		return n
	}
	if qoe.Spans > 0 {
		n.QoE = &qoe
	}
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
