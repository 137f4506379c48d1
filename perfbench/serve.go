package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// serverProc is one avqserve child process on a loopback port.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logBuf *bytes.Buffer
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startServer runs bin on db with -debug and returns once /healthz
// answers. GOMAXPROCS is set explicitly so the provenance can state it.
func startServer(ctx context.Context, bin, db string, gomaxprocs int) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		p, err := launch(ctx, bin, db, port, gomaxprocs)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before the server binds it; startServer retries then.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func launch(ctx context.Context, bin, db string, port, gomaxprocs int) (*serverProc, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &serverProc{
		cmd:    exec.Command(bin, "-db", db, "-listen", addr, "-debug"),
		base:   "http://" + addr,
		logBuf: &bytes.Buffer{},
		exited: make(chan struct{}),
	}
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	p.cmd.Stdout = p.logBuf
	p.cmd.Stderr = p.logBuf
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start avqserve: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("avqserve exited before answering /healthz (%v): %s", p.err, p.log())
		case <-ctx.Done():
			p.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("avqserve did not answer /healthz within a minute: %s", p.log())
		}
	}
}

// log returns the tail of the server's output, for error messages. Call
// it only once the process has exited: its output is written until then.
func (p *serverProc) log() string {
	s := strings.TrimSpace(p.logBuf.String())
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// kill stops the process without a drain and waits for it to exit.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // it may have exited already
	<-p.exited
}

// drain sends SIGTERM and waits for the graceful drain to finish. The
// server exits 0 only when the drain left no pinned frames or live
// snapshots and the engine closed cleanly, so anything else is an error.
func (p *serverProc) drain() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("signal avqserve: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("avqserve did not drain within a minute: %s", p.log())
	}
	if p.err != nil {
		return fmt.Errorf("avqserve drain failed (%v): %s", p.err, p.log())
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes the server's obs registry from /metrics?format=json.
func (p *serverProc) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(p.base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}
