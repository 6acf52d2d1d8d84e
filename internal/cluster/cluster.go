package cluster

import (
	"fmt"
	"sync"
	"time"

	"coterie/internal/geom"
	"coterie/internal/obs"
	"coterie/internal/transport"
)

// Defaults for the knobs a Config leaves zero, and the one fixed size.
const (
	// DefaultHealthInterval is how often the health loop probes each
	// peer. Probes are one pooled round trip, so a sub-second cadence is
	// cheap and bounds how long a dead peer keeps absorbing fetch
	// attempts (each of which still fails fast on the dial/IO timeout).
	DefaultHealthInterval = 500 * time.Millisecond
	// DefaultFetchTimeout caps one peer fetch round trip (dial excluded;
	// dials are bounded separately). A peer slower than this is treated
	// as down for the request and the caller falls back to rendering
	// locally.
	DefaultFetchTimeout = 2 * time.Second
	// poolSize is the idle connection pool per peer. Fetches beyond it
	// dial extra connections and close them on return.
	poolSize = 4
)

// Config describes one node's view of a static cluster.
type Config struct {
	// Self is this node's own address, exactly as it appears in Nodes.
	Self string
	// Nodes is the full membership, including Self. Every node must be
	// configured with the same set (order irrelevant — ownership is
	// rendezvous-hashed, not position-based).
	Nodes []string
	// Game is the game name sent in the hello of peer connections; peers
	// reject mismatches exactly like clients.
	Game string
	// FetchTimeout caps a fetch round trip, HealthInterval the probe
	// cadence; zero selects the package defaults above. Peer dials are
	// bounded by transport.DefaultDialTimeout.
	FetchTimeout   time.Duration
	HealthInterval time.Duration
}

// clusterObs holds the registry instruments (nil-safe zero values when
// uninstrumented).
type clusterObs struct {
	fetches     *obs.Counter
	fetchErrors *obs.Counter
	fetchMs     *obs.Histogram
	peersUp     *obs.Gauge
	downMarks   *obs.Counter
	probes      *obs.Counter
	probeFails  *obs.Counter
	recoveries  *obs.Counter
}

// Cluster is one node's membership view plus its peer-fetch clients.
// Construct with New; Start launches the health loop, Close stops it
// and drops pooled connections. Ownership queries and Fetch are safe
// for concurrent use.
type Cluster struct {
	cfg   Config
	nodes []string
	peers map[string]*peer

	obs clusterObs

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates the membership and builds the node's cluster view. The
// node list is deduplicated; Self must appear in it.
func New(cfg Config) (*Cluster, error) {
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	var nodes []string
	for _, n := range cfg.Nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if !seen[cfg.Self] {
		return nil, fmt.Errorf("cluster: self %q not in node list %v", cfg.Self, nodes)
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: nodes,
		peers: make(map[string]*peer, len(nodes)-1),
		stop:  make(chan struct{}),
	}
	for _, n := range nodes {
		if n != cfg.Self {
			c.peers[n] = newPeer(n, c)
		}
	}
	return c, nil
}

// Instrument resolves the cluster's instruments under the "cluster."
// namespace. Call before Start; Instrument(nil) is a no-op.
func (c *Cluster) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	c.obs = clusterObs{
		fetches:     r.Counter("cluster.peer_fetches"),
		fetchErrors: r.Counter("cluster.peer_fetch_errors"),
		fetchMs:     r.Histogram("cluster.peer_fetch_ms"),
		peersUp:     r.Gauge("cluster.peers_up"),
		downMarks:   r.Counter("cluster.down_marks"),
		probes:      r.Counter("cluster.probes"),
		probeFails:  r.Counter("cluster.probe_failures"),
		recoveries:  r.Counter("cluster.probe_recoveries"),
	}
	c.obs.peersUp.Set(int64(len(c.peers)))
	// Per-peer up/down gauges make the health loop's belief — and probe
	// recovery in particular — directly visible in /metrics.
	for addr, p := range c.peers {
		p.upGauge = r.Gauge("cluster.peer_up." + addr)
		p.upGauge.Set(1)
	}
}

// Self returns this node's own address.
func (c *Cluster) Self() string { return c.cfg.Self }

// Nodes returns the (deduplicated) membership.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodes...) }

// Size returns the membership count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Owner returns the rendezvous owner of pt over the full static
// membership. Ownership deliberately ignores liveness: a down owner
// must not reshuffle every node's shard (and thrash stores); callers
// handle a down owner by rendering locally (failover).
func (c *Cluster) Owner(pt geom.GridPoint) string { return Owner(c.nodes, pt) }

// Up reports whether addr is believed reachable: true for self and for
// peers whose last probe or fetch succeeded (peers start optimistic
// until the first failure).
func (c *Cluster) Up(addr string) bool {
	if addr == c.cfg.Self {
		return true
	}
	p, ok := c.peers[addr]
	return ok && p.isUp()
}

// PeersUp returns how many peers are currently believed up.
func (c *Cluster) PeersUp() int {
	n := 0
	for _, p := range c.peers {
		if p.isUp() {
			n++
		}
	}
	return n
}

// Start launches the periodic health loop. Safe to skip for clusters
// that rely purely on passive (fetch-failure) down-marking.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// probeAll health-checks every peer once: a pooled connection is
// acquired (dialling and performing the hello exchange if the pool is
// empty) and returned. Success marks the peer up — the only way a
// down peer recovers.
func (c *Cluster) probeAll() {
	for _, p := range c.peers {
		c.obs.probes.Inc()
		pc, err := p.get()
		if err != nil {
			c.obs.probeFails.Inc()
			p.markDown()
			continue
		}
		p.put(pc)
		p.markUp()
	}
	c.obs.peersUp.Set(int64(c.PeersUp()))
}

// Close stops the health loop and closes pooled peer connections.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	for _, p := range c.peers {
		p.drain()
	}
}

// Fetch proxies a frame request for pt to its owner and returns the
// owner's reply (always intra-coded; the owner's stage timings ride in
// the reply so the non-owner can pass them through to its client). The
// caller is the leader of the frame store's per-point singleflight, so at
// most one fetch per point is in flight on a node. deadlineMs is the
// client request's deadline on this node's clock (sched.NowMs, <=0 none);
// the hop carries the budget remaining until it, and the owner schedules
// against its own receive time plus that budget, as if the client had
// connected directly.
//
// traceID is the distributed trace id of the client request driving the
// fetch (0 untraced): the hop forwards the id's request context verbatim
// so the owner computes the same id and its serve span joins the
// caller's.
func (c *Cluster) Fetch(pt geom.GridPoint, deadlineMs float64, traceID uint64) (transport.FrameReply, error) {
	owner := c.Owner(pt)
	if owner == c.cfg.Self {
		return transport.FrameReply{}, fmt.Errorf("cluster: self owns %v, nothing to fetch", pt)
	}
	p := c.peers[owner]
	if !p.isUp() {
		return transport.FrameReply{}, fmt.Errorf("cluster: owner %s of %v is down", owner, pt)
	}
	c.obs.fetches.Inc()
	start := time.Now()
	reply, err := p.fetch(pt, deadlineMs, traceID)
	c.obs.fetchMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err != nil {
		c.obs.fetchErrors.Inc()
		err = fmt.Errorf("cluster: peer %s: %w", owner, err)
	}
	return reply, err
}
