package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// failed stands in for the latency of a request that failed, was refused
// or got a wrong answer: it misses every latency limit.
const failed = time.Duration(math.MaxInt64)

// requestTimeout bounds one HTTP round trip, so a stalled server cannot
// hold a run past its time budget.
const requestTimeout = 10 * time.Second

// loadgen sends a stream's requests to one server over at most conns
// keep-alive connections and checks every answer.
type loadgen struct {
	hc    *http.Client
	base  string
	st    stream
	conns int

	mu       sync.Mutex
	firstErr error
}

func newLoadgen(base string, st stream, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base, st: st, conns: conns}
}

func (d *loadgen) close() { d.hc.CloseIdleConnections() }

// fail records the first failure for the run's report.
func (d *loadgen) fail(err error) {
	d.mu.Lock()
	if d.firstErr == nil {
		d.firstErr = err
	}
	d.mu.Unlock()
}

// send posts r and checks the answer. It returns the time the response
// arrived and whether the request succeeded with a correct answer.
func (d *loadgen) send(ctx context.Context, r *request) (time.Time, bool) {
	path := "/v1/query"
	if r.write {
		path = "/v1/mutate"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(r.body))
	if err != nil {
		d.fail(err)
		return time.Now(), false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		d.fail(fmt.Errorf("%s %s: %w", r.op, r.body, err))
		return time.Now(), false
	}
	body, err := io.ReadAll(resp.Body)
	done := time.Now()
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err == nil {
		err = d.check(r, body)
	}
	if err != nil {
		d.fail(fmt.Errorf("%s %s: %w", r.op, r.body, err))
		return done, false
	}
	return done, true
}

func (d *loadgen) check(r *request, body []byte) error {
	if r.write {
		var got server.MutateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return d.st.checkWrite(r, &got)
	}
	var got server.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return d.st.checkRead(r, &got)
}

// phase collects one load phase's samples.
type phase struct {
	mu                sync.Mutex
	reads, writes     []time.Duration // from due (open loop) or send (closed loop) to response
	readDue           []time.Duration // when each read was due, from the phase's start (open loop)
	readRTT           []time.Duration // from send to response, reads only
	lag               []time.Duration // how late each request was sent (open loop)
	attempted, failed int
	withinLimit       int
	// okAt holds when each request that met the limit completed, from the
	// phase's start.
	okAt    []time.Duration
	start   time.Time
	elapsed time.Duration
}

func (p *phase) record(r *request, due time.Time, lat, rtt, lag time.Duration, ok bool, limit time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
		lat = failed
	} else if lat <= limit {
		p.withinLimit++
		p.okAt = append(p.okAt, time.Since(p.start))
	}
	if r.write {
		p.writes = append(p.writes, lat)
	} else {
		p.reads = append(p.reads, lat)
		p.readDue = append(p.readDue, due.Sub(p.start))
		p.readRTT = append(p.readRTT, rtt)
	}
	p.lag = append(p.lag, lag)
}

// openLoop sends requests at a fixed rate for dur: request k is due at
// start + k/rate, whatever happened to earlier ones. With every
// connection busy, a due request waits for one, and its latency counts
// from when it was due.
func (d *loadgen) openLoop(ctx context.Context, rate float64, dur, limit time.Duration) *phase {
	start := time.Now().Add(10 * time.Millisecond)
	p := &phase{start: start}
	n := int64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= n || ctx.Err() != nil {
					return
				}
				r := d.st.next()
				due := start.Add(time.Duration(k) * interval)
				sleepUntil(due)
				sent := time.Now()
				done, ok := d.send(ctx, r)
				p.record(r, due, done.Sub(due), done.Sub(sent), sent.Sub(due), ok, limit)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers wake a sleeping goroutine on a millisecond tick when
// the process is otherwise idle, which would add up to a millisecond of
// generator lag to every open-loop request; nanosleep wakes within tens
// of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}

// closedLoop keeps every connection busy until n requests have been
// sent: each sends its next request as soon as the previous one is
// answered. A fixed count rather than a fixed time keeps the number of
// writes, and so the database's final size, independent of the host's
// speed. It stops early after maxDur, so a stalled server cannot hold
// the run past its budget.
func (d *loadgen) closedLoop(ctx context.Context, n int64, maxDur, limit time.Duration) *phase {
	start := time.Now()
	p := &phase{start: start}
	end := start.Add(maxDur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= n && time.Now().Before(end) && ctx.Err() == nil {
				r := d.st.next()
				sent := time.Now()
				done, ok := d.send(ctx, r)
				p.record(r, sent, done.Sub(sent), done.Sub(sent), 0, ok, limit)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// capacityWindows is the number of equal time windows a closed-loop
// phase is cut into for its capacity.
const capacityWindows = 5

// capacity returns the median over capacityWindows equal windows of the
// phase of the requests per second that met the limit. The median keeps
// a burst of interference from other processes on the host, which slows
// one window, from moving the result.
func (p *phase) capacity() float64 {
	w := p.elapsed / capacityWindows
	if w <= 0 {
		return 0
	}
	counts := make([]float64, capacityWindows)
	for _, at := range p.okAt {
		counts[min(int(at/w), capacityWindows-1)]++
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return medianFloat(counts)
}

// latencyWindows is the number of equal windows, by due time, an
// open-loop phase is cut into for its windowed read quantile.
const latencyWindows = 6

// windowedReadQuantile returns the median over latencyWindows equal
// windows of the phase of each window's q-quantile read latency. A stall
// of the host backs up the requests due during it, which moves a tail
// quantile of the whole phase by a different amount in every run; taking
// the median over windows keeps one stalled window from setting it.
func (p *phase) windowedReadQuantile(q float64, dur time.Duration) time.Duration {
	w := dur / latencyWindows
	if w <= 0 {
		return quantile(p.reads, q)
	}
	byWindow := make([][]time.Duration, latencyWindows)
	for i, at := range p.readDue {
		k := min(max(int(at/w), 0), latencyWindows-1)
		byWindow[k] = append(byWindow[k], p.reads[i])
	}
	var qs []float64
	for _, ds := range byWindow {
		if len(ds) > 0 {
			qs = append(qs, float64(quantile(ds, q)))
		}
	}
	return time.Duration(medianFloat(qs))
}
