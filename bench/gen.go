package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"coterie/internal/geom"
	"coterie/internal/trace"
)

// Req is one generated request: the grid point to fetch and, for the
// workloads that upload FI state, the player's continuous position.
type Req struct {
	Pt  geom.GridPoint
	Pos geom.Vec2
}

// Stream is one workload's generated input: a request list per player (and
// the traces behind it for the replay workload). It is a pure function of
// (workload, seed, sizing); the system under test receives only the
// generated requests, never the seed.
type Stream struct {
	Players [][]Req
	Traces  []*trace.Trace
	// Slices is how many consecutive equal parts each player's list divides
	// into, one part per closed-loop round; 1 means every round walks the
	// whole list.
	Slices int
	// Hash is FNV-64a over every player's requests in order.
	Hash uint64
}

// Sizing fixes the work of one run. Request streams are fixed work, not
// fixed time: Default scales the counts from the run length at the rates
// the seed commit sustains, so a run measures for about -seconds there.
type Sizing struct {
	Players int
	Rounds  int // closed-loop rounds, each against a fresh server where cold
	// TracedRounds is the closed-loop round count of each half (untraced,
	// traced) of a -trace 1 run.
	TracedRounds   int
	ScatterPerRnd  int     // cold_scatter teleports per player per round
	FrontierPerRnd int     // frontier_walk distinct points per player per round
	WarmPoints     int     // warm_walk distinct points per player
	WarmLapsPerRnd int     // warm_walk laps of those points per round
	OpenSeconds    float64 // udp_push_lossy and client_replay trace length
	VerifyPoints   int     // stream points re-fetched for the SSIM check
	LayerPoints    int     // stream points the layer pass calls each layer on
	Small          bool    // low-resolution environment (self-tests only)
}

// DefaultSizing sizes a run of about the given seconds on P players.
func DefaultSizing(players int, seconds float64) Sizing {
	per := func(ratePerPlayer float64, rounds int) int {
		n := int(math.Round(ratePerPlayer * seconds / float64(rounds)))
		if n < 2 {
			n = 2
		}
		return n
	}
	const rounds = 5
	return Sizing{
		Players:        players,
		Rounds:         rounds,
		TracedRounds:   2,
		ScatterPerRnd:  per(20, rounds),  // ~40 frames/s over two players
		FrontierPerRnd: per(20, rounds),  // ~40 frames/s over two players
		WarmPoints:     200,              // per player
		WarmLapsPerRnd: per(225, rounds), // ~90k frames/s over two players
		OpenSeconds:    seconds,
		VerifyPoints:   64,
		LayerPoints:    64,
	}
}

// Generate builds the workload's stream.
func Generate(sut *SUT, workload string, seed int64, sz Sizing) (*Stream, error) {
	st := &Stream{Slices: 1}
	switch workload {
	case "cold_scatter":
		st.Slices = sz.Rounds
		st.Players = scatter(sut.Grid(), sz.Players, sz.Rounds*sz.ScatterPerRnd, seed)
	case "frontier_walk":
		st.Players = distinctWalk(sut, sz.Players, sz.FrontierPerRnd, seed)
	case "warm_walk":
		st.Players = distinctWalk(sut, sz.Players, sz.WarmPoints, seed)
	case "udp_push_lossy", "client_replay":
		st.Traces = sut.Party(sz.Players, sz.OpenSeconds, seed)
		for _, tr := range st.Traces {
			st.Players = append(st.Players, tickReqs(sut.Grid(), tr))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	st.Hash = hashStream(st.Players)
	return st, nil
}

// scatter draws n uniform-random teleports per player over the whole
// map, stratified: the map is cut into players*n near-square cells, one
// jittered point per cell, and the cells are dealt to the players in a
// seeded shuffle. Every stream covers the map evenly, so two seeds differ
// in where inside each cell they land, not in which district they sample.
// Render cost varies severalfold across the map; without the strata the
// seed would move the throughput more than most code changes do.
func scatter(grid geom.Grid, players, n int, seed int64) [][]Req {
	rng := rand.New(rand.NewSource(seed))
	total := players * n
	b := grid.Bounds
	cols := int(math.Ceil(math.Sqrt(float64(total) * b.Width() / b.Depth())))
	if cols < 1 {
		cols = 1
	}
	rows := (total + cols - 1) / cols
	cells := rng.Perm(cols * rows)[:total]
	out := make([][]Req, players)
	for k, c := range cells {
		pos := geom.V2(
			b.MinX+(float64(c%cols)+rng.Float64())*b.Width()/float64(cols),
			b.MinZ+(float64(c/cols)+rng.Float64())*b.Depth()/float64(rows),
		)
		p := k % players
		out[p] = append(out[p], Req{Pt: grid.Snap(pos), Pos: pos})
	}
	return out
}

// tickReqs snaps every 60 Hz tick of a trace to the grid, repeats kept.
func tickReqs(grid geom.Grid, tr *trace.Trace) []Req {
	out := make([]Req, len(tr.Pos))
	for i, p := range tr.Pos {
		out[i] = Req{Pt: grid.Snap(p), Pos: p}
	}
	return out
}

// distinctWalk returns, per player, the first n consecutive distinct grid
// points of its party trace: a player walking about one cell per request.
// The trace is lengthened until every player has n (slow indoor walkers
// pause a third of the time).
func distinctWalk(sut *SUT, players, n int, seed int64) [][]Req {
	for seconds := float64(n)/trace.TickHz*4 + 4; ; seconds *= 2 {
		out := make([][]Req, players)
		short := false
		for p, tr := range sut.Party(players, seconds, seed) {
			for _, rq := range tickReqs(sut.Grid(), tr) {
				if k := len(out[p]); k == 0 || out[p][k-1].Pt != rq.Pt {
					out[p] = append(out[p], rq)
				}
				if len(out[p]) == n {
					break
				}
			}
			short = short || len(out[p]) < n
		}
		if !short {
			return out
		}
	}
}

func hashStream(players [][]Req) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for p, reqs := range players {
		for _, rq := range reqs {
			binary.BigEndian.PutUint32(b[0:], uint32(p))
			binary.BigEndian.PutUint32(b[4:], uint32(int32(rq.Pt.I)))
			binary.BigEndian.PutUint32(b[8:], uint32(int32(rq.Pt.J)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// distinctPoints lists every distinct point of the streams, in stream order.
func distinctPoints(players [][]Req) []geom.GridPoint {
	var all []geom.GridPoint
	seen := make(map[geom.GridPoint]bool)
	for _, reqs := range players {
		for _, rq := range reqs {
			if !seen[rq.Pt] {
				seen[rq.Pt] = true
				all = append(all, rq.Pt)
			}
		}
	}
	return all
}

// samplePoints picks up to n distinct points evenly spaced over all players'
// streams, in stream order.
func samplePoints(players [][]Req, n int) []geom.GridPoint {
	all := distinctPoints(players)
	if len(all) <= n {
		return all
	}
	out := make([]geom.GridPoint, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}
