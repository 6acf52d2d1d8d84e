package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// This file is the admin surface of the registry: the opt-in HTTP
// listener the live server exposes with -admin. It serves
//
//	/metrics      JSON registry snapshot (counters, gauges, histograms)
//	/trace        recent per-frame stage spans from the trace ring
//	              (?n= recent count, ?player= one player's spans only,
//	              ?trace= every span of one distributed trace id)
//	/qoe          sliding-window QoE summary derived from the spans
//	              (?window= ms, ?budget= ms, ?player=)
//	/debug/vars   expvar (includes the registry once PublishExpvar ran)
//	/debug/pprof  the standard Go profiling endpoints
//
// Everything here is a cold path; the hot-path budget lives in obs.go.

// maxTraceSpans bounds one /trace response.
const maxTraceSpans = 4096

// AdminMux returns the admin HTTP handler for a registry.
func AdminMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		n := 128
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		if n > maxTraceSpans {
			n = maxTraceSpans
		}
		player, ok := playerParam(req)
		if !ok {
			http.Error(w, "bad player", http.StatusBadRequest)
			return
		}
		spans := r.Trace().RecentFor(n, player)
		if q := req.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil || id == 0 {
				http.Error(w, "bad trace", http.StatusBadRequest)
				return
			}
			spans = r.Trace().ForTrace(id)
		}
		if spans == nil {
			spans = []FrameSpan{}
		}
		writeJSON(w, spans)
	})
	mux.HandleFunc("/qoe", func(w http.ResponseWriter, req *http.Request) {
		cfg := QoEConfig{Player: -1}
		if q := req.URL.Query().Get("window"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || v <= 0 {
				http.Error(w, "bad window", http.StatusBadRequest)
				return
			}
			cfg.WindowMs = v
		}
		if q := req.URL.Query().Get("budget"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || v <= 0 {
				http.Error(w, "bad budget", http.StatusBadRequest)
				return
			}
			cfg.BudgetMs = v
		}
		player, ok := playerParam(req)
		if !ok {
			http.Error(w, "bad player", http.StatusBadRequest)
			return
		}
		cfg.Player = player
		writeJSON(w, r.QoE(cfg))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// PublishExpvar publishes the registry's snapshot under the given name in
// the process-wide expvar namespace (served on /debug/vars). Publishing
// the same name twice is a no-op rather than expvar's panic, so tests and
// restarting callers are safe.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// playerParam parses an optional ?player= query value; absence means all
// players (-1). ok is false on a malformed value.
func playerParam(req *http.Request) (player int, ok bool) {
	q := req.URL.Query().Get("player")
	if q == "" {
		return -1, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
