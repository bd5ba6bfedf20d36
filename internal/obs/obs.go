// Package obs is the live observability layer: a dependency-light
// metrics registry (scrape-time counters and gauges over values the
// instrumented code keeps anyway, and the stats.Histograms it records
// into, registered under Prometheus-style names with labels), a
// sampled request tracer that decomposes request latency into phases,
// and a bounded in-memory event journal for flushes and compactions.
// The hot path is lock-free — recording is one atomic op on the
// instrumented code's own counter or histogram — and a nil Registry,
// Tracer, Span or Journal is a no-op, so instrumented code pays a
// single predictable nil check when observability is disabled. See DESIGN.md "Observability".
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Label is one name="value" dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// Var is one flattened (series id, value) pair — the JSON /vars and
// stats-frame form of a registry snapshot. Histograms flatten into
// _count/_sum/_p50/_p99/_max entries.
type Var struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type kind uint8

const (
	kindCounterFunc kind = iota
	kindGaugeFunc
	kindHistogram
)

func (k kind) promType() string {
	switch k {
	case kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	default:
		return "summary"
	}
}

// series is one registered metric instance.
type series struct {
	name   string // base metric name (family)
	id     string // rendered name{labels} identity
	kind   kind
	fn     func() float64
	h      *stats.Histogram
	labels []Label
}

// Registry holds named metric series. Registration takes a mutex;
// scrapes read the registered funcs and histograms. A nil *Registry is
// valid everywhere and registers nothing — code instruments
// unconditionally and the caller decides at construction whether the
// metrics exist.
//
// Series identities (name plus label set) must be unique and a base
// name keeps one metric type; violations panic at registration time,
// like a duplicate bench experiment — they are assembly mistakes, not
// runtime conditions. Register one Store or Server per Registry.
type Registry struct {
	mu     sync.Mutex
	series []*series
	types  map[string]kind
	ids    map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: map[string]kind{}, ids: map[string]struct{}{}}
}

// register validates and records one series under the registry lock.
func (r *Registry) register(s *series) {
	if !validName(s.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", s.name))
	}
	for _, l := range s.labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on %q", l.Key, s.name))
		}
	}
	s.id = renderID(s.name, s.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.types[s.name]; ok && k != s.kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", s.name, k.promType(), s.kind.promType()))
	}
	if _, dup := r.ids[s.id]; dup {
		panic(fmt.Sprintf("obs: duplicate metric series %q", s.id))
	}
	r.types[s.name] = s.kind
	r.ids[s.id] = struct{}{}
	r.series = append(r.series, s)
}

// CounterFunc registers a counter whose value is computed at scrape
// time — the zero-hot-path-cost binding for a cumulative counter the
// instrumented code already maintains (an atomic it increments anyway).
// fn must be safe to call from any goroutine and monotone.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, kind: kindCounterFunc, fn: fn, labels: labels})
}

// GaugeFunc registers a gauge computed at scrape time. fn must be safe
// to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, kind: kindGaugeFunc, fn: fn, labels: labels})
}

// AttachHistogram exposes a stats.Histogram the instrumented code
// records into (the scrape-time sibling of CounterFunc) as a
// Prometheus summary: p50/p90/p99/p999 quantiles plus _sum and _count.
func (r *Registry) AttachHistogram(name string, h *stats.Histogram, labels ...Label) {
	if r == nil || h == nil {
		return
	}
	r.register(&series{name: name, kind: kindHistogram, h: h, labels: labels})
}

// snapshot returns the registered series under the lock; values are
// read outside it (handles are atomic, funcs lock what they need).
func (r *Registry) snapshot() []*series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, len(r.series))
	copy(out, r.series)
	return out
}

// Vars flattens the registry into sorted (name, value) pairs — the
// /vars and stats-frame snapshot. Histograms expand into
// _count/_sum/_p50/_p99/_max pseudo-series.
func (r *Registry) Vars() []Var {
	ss := r.snapshot()
	if len(ss) == 0 {
		return nil
	}
	vars := make([]Var, 0, len(ss))
	for _, s := range ss {
		switch s.kind {
		case kindCounterFunc, kindGaugeFunc:
			vars = append(vars, Var{s.id, s.fn()})
		case kindHistogram:
			h := s.h.Snapshot()
			vars = append(vars,
				Var{s.id + "_count", float64(h.Count())},
				Var{s.id + "_sum", float64(h.Sum())},
				Var{s.id + "_p50", float64(h.Quantile(0.50))},
				Var{s.id + "_p99", float64(h.Quantile(0.99))},
				Var{s.id + "_max", float64(h.Max())},
			)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	return vars
}

// Value looks one flattened series up by its rendered id (including
// histogram pseudo-series like "name_count"). The second result
// reports whether the series exists.
func (r *Registry) Value(id string) (float64, bool) {
	for _, v := range r.Vars() {
		if v.Name == id {
			return v.Value, true
		}
	}
	return 0, false
}

// renderID renders the canonical series identity: name alone, or
// name{k="v",...} with labels in registration order.
func renderID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// validName reports whether s is a legal metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelKey reports whether s is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
