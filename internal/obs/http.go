package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// adminMux builds the admin endpoint: Prometheus text at /metrics,
// the flattened JSON snapshot at /vars, the write-path event journal
// at /events, and the standard pprof handlers under /debug/pprof/.
// reg and j may be nil (the endpoints then serve empty documents); the
// pprof handlers are always live — profiling needs no registry.
func adminMux(reg *Registry, j *Journal) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.writePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Vars())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Total   uint64  `json:"total"`
			Evicted uint64  `json:"evicted"`
			Events  []Event `json:"events"`
		}{j.Total(), j.evicted(), j.Events()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("sosd admin endpoint\n/metrics\n/vars\n/events\n/debug/pprof/\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// AdminServer is a running admin HTTP listener.
type AdminServer struct {
	srv *http.Server
	ln  net.Listener
}

// ListenAdmin starts the admin endpoint on addr (e.g. "127.0.0.1:0"
// for an ephemeral port in tests) and serves it on a background
// goroutine until Close.
func ListenAdmin(addr string, reg *Registry, j *Journal) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &AdminServer{srv: &http.Server{Handler: adminMux(reg, j)}, ln: ln}
	go func() { _ = a.srv.Serve(ln) }()
	return a, nil
}

// Addr reports the bound listen address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the listener and severs open admin connections.
func (a *AdminServer) Close() error { return a.srv.Close() }
