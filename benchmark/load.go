package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"
)

// sample is one request as the client saw it. Bodies are stored raw
// and parsed only after the window closes.
type sample struct {
	seq     int   // position in the workload's request sequence
	class   int   // index into workload.classes
	startNS int64 // send time, since window start
	latNS   int64 // send → last byte
	status  int
	body    []byte
	err     error
}

// newClient returns an HTTP client holding the load generator's one
// keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one pre-marshalled /query body and reads the whole
// response; cancelling ctx aborts it.
func post(ctx context.Context, client *http.Client, url string, body []byte) (status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, err
}

// window is the outcome of one closed-loop run.
type window struct {
	samples []sample // in sequence order
	start   time.Time
	wall    time.Duration // start → last response, reference chunks included
	busy    time.Duration // Σ latencies: the time a request was in flight
}

// runWindow drives the daemon closed-loop from one connection: the next
// request of the workload's sequence (starting at first) is sent once
// the previous one is answered. After dur has passed, issuing stops at
// the next multiple of the workload's block, so a mix window always
// holds whole permutations. With a host reference, a chunk of it runs
// before the first request, after the last, and in between whenever
// refEvery of serving time has passed since the previous one — never
// while a request is in flight. A daemon that dies mid-window is a hard
// failure.
func runWindow(ctx context.Context, d *daemon, w *workload, dur time.Duration, first int, ref *hostRef) (*window, error) {
	url := d.base + "/query"
	win := &window{start: time.Now()}
	var sinceChunk time.Duration
	if ref != nil {
		ref.chunk()
	}
	for i := first; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !d.alive() {
			return nil, errors.New("daemon died during the measured window (stderr in " + d.stderr.Name() + ")")
		}
		if time.Since(win.start) >= dur && (i-first)%w.block == 0 {
			break
		}
		ci := w.classAt(i)
		t0 := time.Now()
		s := sample{seq: i, class: ci, startNS: int64(t0.Sub(win.start))}
		s.status, s.body, s.err = post(ctx, d.client, url, w.classes[ci].body)
		lat := time.Since(t0)
		s.latNS = int64(lat)
		win.samples = append(win.samples, s)
		win.busy += lat
		if sinceChunk += lat; ref != nil && sinceChunk >= refEvery {
			ref.chunk()
			sinceChunk = 0
		}
	}
	if ref != nil && sinceChunk > 0 {
		ref.chunk()
	}
	win.wall = time.Since(win.start)
	return win, nil
}
