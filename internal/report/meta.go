package report

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Meta is the run metadata attached to machine-readable output: what
// produced the tables, from which source revision, with which options,
// over which data. It is finalized at the *end* of a run, because some
// facts (dataset checksums) are only known once the experiments have
// generated their environments.
type Meta struct {
	Tool      string    `json:"tool"`
	Version   string    `json:"version"`
	GoVersion string    `json:"go,omitempty"`
	OS        string    `json:"os,omitempty"`
	Arch      string    `json:"arch,omitempty"`
	CPUs      int       `json:"cpus,omitempty"`
	Started   time.Time `json:"started,omitzero"`
	// Options records the run's knobs (n, lookups, seed, filters) as
	// the producer saw them.
	Options map[string]any `json:"options,omitempty"`
	// Datasets maps each generated environment ("amzn/n=200000/seed=42")
	// to a checksum of its keys, so two runs are comparable only when
	// they measured identical data.
	Datasets map[string]uint64 `json:"datasets,omitempty"`
}

// NewMeta fills the host fields and version for a tool.
func NewMeta(tool string) Meta {
	return Meta{
		Tool:      tool,
		Version:   buildVersion(),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Started:   time.Now().UTC(),
	}
}

// buildVersion returns a git-describe-style identifier of the running
// binary: the embedded VCS revision (shortened, "+dirty" when the
// working tree was modified), the module version for released builds,
// or "devel" when no build info is available (e.g. `go run` without
// VCS stamping).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
