package obs

import "net/http"

// Handler serves the registry (and optionally a tracer) over HTTP:
//
//	/metrics   Prometheus text exposition
//	/snapshot  JSON snapshot (metrics + spans when a tracer is given)
//
// Both arguments may be nil; a nil registry serves empty pages, which
// keeps -listen usable even before anything has published. Callers
// mount pprof themselves (the newton command's -listen does) so that a
// process can expose metrics without also exposing profiling.
func Handler(r *Registry, t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w, t)
	})
	return mux
}
