package main

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
)

// Relay is a bench-owned UDP hop between the clients and the server's UDP
// socket. It drops a seeded share of datagrams in both directions (so
// requests, FI states and NACKs can be lost, not only frame chunks) and
// counts payload bytes per direction before the drop, which makes
// wire_down_bytes what the server actually put on the link: chunk
// headers, parity, retransmits and pushes nobody consumed. Traffic still
// crosses host loopback; there is no delay or bandwidth model.
type Relay struct {
	pc     *net.UDPConn
	server *net.UDPAddr
	rate   float64
	seed   int64

	mu     sync.Mutex
	flows  map[string]*relayFlow
	closed bool // set by Close under mu; no flow is created afterwards
	wg     sync.WaitGroup

	UpBytes, DownBytes     atomic.Int64
	UpDropped, DownDropped atomic.Int64
}

// relayFlow is one client's path: its own socket towards the server, so
// the server sees one address per client, as without the relay.
type relayFlow struct {
	client *net.UDPAddr
	up     *net.UDPConn
	upLoss *lossGen
}

// lossGen decides drops from a seeded stream: the k-th datagram of a flow
// direction meets the same fate on every run with the same seed.
type lossGen struct {
	rng  *rand.Rand
	rate float64
}

func newLossGen(seed int64, rate float64) *lossGen {
	return &lossGen{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

func (l *lossGen) drop() bool { return l.rng.Float64() < l.rate }

// StartRelay listens on a loopback UDP port and forwards to serverAddr.
func StartRelay(serverAddr string, rate float64, seed int64) (*Relay, error) {
	sa, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	r := &Relay{pc: pc, server: sa, rate: rate, seed: seed, flows: make(map[string]*relayFlow)}
	r.wg.Add(1)
	go r.uplink()
	return r, nil
}

// Addr is the address clients dial in place of the server's.
func (r *Relay) Addr() string { return r.pc.LocalAddr().String() }

// uplink forwards client datagrams to the server, creating a flow (and its
// downlink goroutine) the first time a client address is seen. Flows are
// numbered in arrival order, which seeds their loss streams.
func (r *Relay) uplink() {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := r.pc.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		fl := r.flows[from.String()]
		if fl == nil {
			up, err := net.DialUDP("udp", nil, r.server)
			if err != nil {
				r.mu.Unlock()
				continue
			}
			k := int64(len(r.flows))
			fl = &relayFlow{client: from, up: up, upLoss: newLossGen(r.seed*7919+2*k, r.rate)}
			r.flows[from.String()] = fl
			r.wg.Add(1)
			go r.downlink(fl, newLossGen(r.seed*7919+2*k+1, r.rate))
		}
		r.mu.Unlock()
		r.UpBytes.Add(int64(n))
		if fl.upLoss.drop() {
			r.UpDropped.Add(1)
			continue
		}
		fl.up.Write(buf[:n]) // a send error on loopback is a lost datagram
	}
}

// downlink forwards the server's datagrams for one flow back to its client.
func (r *Relay) downlink(fl *relayFlow, loss *lossGen) {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, err := fl.up.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ICMP unreachable surfacing on a connected socket
		}
		r.DownBytes.Add(int64(n))
		if loss.drop() {
			r.DownDropped.Add(1)
			continue
		}
		r.pc.WriteToUDP(buf[:n], fl.client)
	}
}

// Close stops every relay goroutine and waits for them.
func (r *Relay) Close() {
	r.pc.Close()
	r.mu.Lock()
	r.closed = true
	for _, fl := range r.flows {
		fl.up.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
