package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqSpec is one pre-generated request. Specs are built from the seed
// before measuring, so the generator does no random draws or encoding on
// the clock.
type reqSpec struct {
	kind   int
	method string
	url    string
	key    string // API key; empty for anonymous servers
	body   []byte
	inm    string // If-None-Match value
	expect []byte // for kindPredictions: the exact body a 200 must carry
}

const (
	kindPredictions = iota
	kindNotModified
	kindAdvise
	kindTables
	kindFleet         // catalog-wide ranking
	kindFleetFiltered // ranking under a type-prefix filter
	kindNoop
	numKinds
)

var kindNames = [numKinds]string{"predictions", "not_modified", "advise", "tables", "fleet", "fleet_filtered", "noop"}

// checkFunc validates one response; a non-nil error counts the request as
// failed. A *outputError additionally marks a failed correctness check:
// the service answered, but with the wrong bytes.
type checkFunc func(spec *reqSpec, status int, body []byte) error

type outputError struct{ msg string }

func (e *outputError) Error() string { return e.msg }

// phase is the outcome of one open-loop phase at a fixed offered rate.
type phase struct {
	rate    float64
	counts  phaseCounts
	lat     [numKinds][]time.Duration // from due time, successful requests
	all     []time.Duration           // every request, failures at +inf
	late    []time.Duration           // send start minus due time
	tailLag time.Duration             // median lateness over the last tenth
	errs    []string                  // first few failures
	wrong   []string                  // first few failed correctness checks
}

// latencies returns the successful latencies of the given kinds.
func (p *phase) latencies(kinds ...int) []time.Duration {
	var out []time.Duration
	for _, k := range kinds {
		out = append(out, p.lat[k]...)
	}
	return out
}

// newClient returns an HTTP client holding at most conns connections to
// the server.
func newClient(conns int) *http.Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// waitFunc blocks for about d.
type waitFunc func(d time.Duration)

// nanosleep waits in the nanosleep syscall. On an otherwise idle process
// the runtime timer wakes up to a millisecond late, which would swamp
// reads that take ~200 us; the syscall wakes within ~100 us. Each wait
// parks an OS thread, though, which perturbs CPU-bound work beside it.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
}

// openLoop offers specs (cycled) at rate requests per second for dur on
// conns connections. Request i is due at start + i/rate; each is timed
// from its due time, so a stall is charged to every request it delays.
func openLoop(ctx context.Context, client *http.Client, specs []reqSpec, rate float64, dur time.Duration, conns int, wait waitFunc, check checkFunc) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	type local struct {
		lat    [numKinds][]time.Duration
		all    []time.Duration
		late   []time.Duration
		lateAt []int
		counts phaseCounts
		errs   []string
		wrong  []string
	}
	locals := make([]local, conns)
	var next atomic.Int64
	start := now().Add(2 * time.Millisecond)
	period := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(l *local) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				spec := &specs[i%len(specs)]
				due := start.Add(time.Duration(float64(i) * period))
				if d := due.Sub(now()); d > 0 {
					wait(d)
				}
				sent := now()
				status, err := do(client, spec, &buf)
				done := now()
				l.counts.attempted++
				l.late = append(l.late, sent.Sub(due))
				l.lateAt = append(l.lateAt, i)
				if err == nil {
					err = check(spec, status, buf.Bytes())
				}
				if err != nil {
					l.counts.failed++
					l.all = append(l.all, time.Duration(1<<62))
					msg := kindNames[spec.kind] + ": " + err.Error()
					var wrong *outputError
					if !errors.As(err, &wrong) {
						l.errs = appendCapped(l.errs, msg)
					} else {
						l.wrong = appendCapped(l.wrong, msg)
					}
					continue
				}
				l.counts.succeeded++
				d := done.Sub(due)
				l.lat[spec.kind] = append(l.lat[spec.kind], d)
				l.all = append(l.all, d)
			}
		}(&locals[w])
	}
	wg.Wait()
	p := &phase{rate: rate}
	var tail []time.Duration
	for _, l := range locals {
		for k := range l.lat {
			p.lat[k] = append(p.lat[k], l.lat[k]...)
		}
		p.all = append(p.all, l.all...)
		p.late = append(p.late, l.late...)
		for j, i := range l.lateAt {
			if i >= n-n/10 {
				tail = append(tail, l.late[j])
			}
		}
		p.counts.attempted += l.counts.attempted
		p.counts.succeeded += l.counts.succeeded
		p.counts.failed += l.counts.failed
		p.errs = append(p.errs, l.errs...)
		p.wrong = append(p.wrong, l.wrong...)
	}
	p.tailLag = median(tail)
	return p
}

// do sends one request and reads the whole body into buf.
func do(client *http.Client, spec *reqSpec, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if spec.body != nil {
		body = bytes.NewReader(spec.body)
	}
	req, err := http.NewRequest(spec.method, spec.url, body)
	if err != nil {
		return 0, err
	}
	if spec.key != "" {
		req.Header.Set("Authorization", "Bearer "+spec.key)
	}
	if spec.inm != "" {
		req.Header.Set("If-None-Match", spec.inm)
	}
	if spec.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// loopback serves h on a fresh 127.0.0.1 port until stop is called; stop
// returns once the server goroutine has exited.
func loopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// maxRate searches for the highest offered rate at which the phase meets
// the latency limit: p99 over all requests (failures count as misses)
// within limit, at least 99.9% succeeded, and the generator not falling
// behind by the end (the backlog does not grow). It doubles from lo until
// a rate fails, then bisects, spending step per probe until budget runs
// out. It returns the best passing rate and every probe made.
func maxRate(ctx context.Context, client *http.Client, specs []reqSpec, lo float64, step, budget time.Duration, conns int, limit time.Duration, check checkFunc) (float64, []*phase) {
	var probes []*phase
	best, hi := 0.0, 0.0
	rate := lo
	for spent := time.Duration(0); spent+step <= budget && ctx.Err() == nil; spent += step {
		p := openLoop(ctx, client, specs, rate, step, conns, nanosleep, check)
		probes = append(probes, p)
		if meetsLimit(p, limit) {
			best = rate
		} else {
			hi = rate
		}
		if hi == 0 {
			rate *= 2
		} else {
			rate = (best + hi) / 2
			if best == 0 {
				rate = hi / 2
			}
		}
	}
	return best, probes
}

func meetsLimit(p *phase, limit time.Duration) bool {
	if p.counts.attempted == 0 {
		return false
	}
	okShare := float64(p.counts.succeeded) / float64(p.counts.attempted)
	return okShare >= 0.999 && quantile(p.all, 0.99) <= limit && p.tailLag <= limit
}

func appendCapped(xs []string, s string) []string {
	if len(xs) < 5 {
		xs = append(xs, s)
	}
	return xs
}
