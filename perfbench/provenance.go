package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/core"
)

// provenance records what a result was measured on and with.
type provenance struct {
	Workload         string  `json:"workload"`
	Seed             int64   `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Trace            bool    `json:"trace"`
	CPUs             int     `json:"cpus"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	Connections      int     `json:"connections"`
	Go               string  `json:"go"`
	// Commit is the VCS revision stamped into the binary when it was
	// built inside a git checkout, else "unknown"; SourceDigest is a
	// SHA-256 over the tree's Go sources and module files, which
	// identifies the code either way.
	Commit         string  `json:"commit"`
	SourceDigest   string  `json:"source_digest"`
	Codec          string  `json:"codec"`
	PageSize       int     `json:"page_size"`
	FlushPolicy    string  `json:"flush_policy"`
	Tuples         int     `json:"tuples"`
	RateRPS        float64 `json:"rate_rps"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		Workload:         cfg.w.name,
		Seed:             cfg.seed,
		Seconds:          cfg.seconds,
		Trace:            cfg.trace,
		CPUs:             runtime.NumCPU(),
		BenchGOMAXPROCS:  runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: cfg.conns, // startServer sets it in the child's environment
		Connections:      cfg.conns,
		Go:               runtime.Version(),
		Commit:           commit(),
		SourceDigest:     sourceDigest(cfg.root),
		Codec:            core.CodecAVQ.String(),
		PageSize:         pageSize,
		FlushPolicy:      cfg.w.durability,
		Tuples:           max(1000, int(float64(cfg.w.tuples)*cfg.scale)),
		RateRPS:          cfg.w.rate * cfg.scale,
		LatencyLimitMs:   ms(cfg.w.limit),
	}
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping hidden directories (the build directory among
// them). It returns "unknown" if the tree cannot be read.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		name := d.Name()
		if d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
