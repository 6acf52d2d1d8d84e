// Package coterie is a from-scratch reproduction of "Coterie: Exploiting
// Frame Similarity to Enable High-Quality Multiplayer VR on Commodity
// Mobile Devices" (Meng, Paul, Hu — ASPLOS 2020), built entirely on the Go
// standard library.
//
// The module implements the paper's full system and every substrate it
// depends on: a software panoramic renderer with near/far-BE distance
// clipping (internal/render), the nine study game worlds (internal/games),
// SSIM (internal/ssim), a DCT intra-frame codec (internal/codec), the
// adaptive cutoff scheme (internal/cutoff), the similarity frame cache
// (internal/cache), the prefetcher (internal/prefetch), a Pixel 2 device
// model (internal/device), a discrete-event 802.11ac testbed
// (internal/netsim), FI synchronisation (internal/fisync), a real TCP
// frame server (internal/server, cmd/coterie-server), and the session
// engine that runs Coterie against the paper's baselines (internal/core).
//
// The experiment harness (internal/eval, cmd/benchtab) regenerates every
// table and figure of the paper's evaluation; the benchmarks in
// bench_test.go wrap the same experiments. The frame service's own
// performance record is the separate module under bench/ (BENCHMARK.json);
// cmd/coterie-client plays one player against a server that is already
// running, and several of them are the multi-player load. See README.md
// for a tour, DESIGN.md for the system inventory and substitutions, and
// EXPERIMENTS.md for measured-versus-published results.
package coterie
