package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
)

// serveConfig is the one server shape both serve workloads use: a single
// replica, the default MaxBatch (128) and queue bound, MaxLinger 0 (a free
// replica takes whatever is pending), blocking admission.
var serveConfig = serve.Config{MaxBatch: 128, MaxLinger: 0}

// newServer builds the server and its single-replica group.
func newServer(w workload, m *models.Model) (*serve.Server, serve.GroupKey, error) {
	srv := serve.New(serveConfig)
	key, err := srv.AddGroup(m, w.algo, core.Config{}, 1)
	if err != nil {
		srv.Close()
		return nil, serve.GroupKey{}, err
	}
	return srv, key, nil
}

// inprocSystem drives serve.Stream directly: w.streams streams split over
// w.drivers goroutines, one outstanding request per stream.
type inprocSystem struct {
	w   workload
	srv *serve.Server
	key serve.GroupKey
}

func (s *inprocSystem) pass(in inputs, rec *opRecord) {
	per := len(in) / s.w.drivers
	var wg sync.WaitGroup
	for d := 0; d < s.w.drivers; d++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			s.drive(in, rec, first, first+per)
		}(d * per)
	}
	wg.Wait()
}

// drive runs streams [lo,hi) in lock step: submit one request on each,
// then collect the responses in submission order.
func (s *inprocSystem) drive(in inputs, rec *opRecord, lo, hi int) {
	ctx := context.Background()
	ops := len(in[lo])
	streams := make([]*serve.Stream, hi-lo)
	for j := range streams {
		st, err := s.srv.OpenStream(s.key)
		if err != nil {
			for i := 0; i < ops; i++ {
				rec.observe((lo+j)*ops+i, time.Now(), nil, nil, err)
			}
			continue
		}
		streams[j] = st
		defer st.Close()
	}
	t0 := make([]time.Time, len(streams))
	ch := make([]<-chan serve.Response, len(streams))
	for i := 0; i < ops; i++ {
		for j, st := range streams {
			if st != nil {
				t0[j] = time.Now()
				ch[j] = st.SubmitCtx(ctx, in[lo+j][i].x)
			}
		}
		for j, st := range streams {
			if st != nil {
				r := <-ch[j]
				rec.observe((lo+j)*ops+i, t0[j], r.Logits, in[lo+j][i].labels, r.Err)
			}
		}
	}
}

func (s *inprocSystem) close() error {
	s.srv.Close()
	return nil
}

// httpSystem puts the server behind httpapi on a loopback listener and
// drives it with one closed-loop session per connection.
type httpSystem struct {
	w       workload
	srv     *serve.Server
	base    string // the listener's URL
	hs      *http.Server
	served  chan error
	clients []*httpapi.Client
	conns   []*http.Transport
}

func newHTTPSystem(w workload, srv *serve.Server) (*httpSystem, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpSystem{w: w, srv: srv, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: httpapi.New(srv, httpapi.Config{})}}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < w.streams; i++ {
		// One transport per session: each session keeps its own single
		// keep-alive connection, as two remote clients would.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c := httpapi.NewClient(s.base, &http.Client{Transport: tr})
		c.Binary = true
		s.conns = append(s.conns, tr)
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *httpSystem) pass(in inputs, rec *opRecord) {
	var wg sync.WaitGroup
	for k := range in {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.session(k, in[k], rec)
		}(k)
	}
	wg.Wait()
}

// session is one pass of one client: open, w.ops requests, close.
func (s *httpSystem) session(k int, stream []batchIn, rec *opRecord) {
	first := k * len(stream)
	cs, err := s.clients[k].Open(s.w.model, s.w.algo.String())
	for i, b := range stream {
		if err != nil { // the session never opened: every op of it failed
			rec.observe(first+i, time.Now(), nil, nil, err)
			continue
		}
		t0 := time.Now()
		logits, perr := cs.Process(b.x)
		rec.observe(first+i, t0, logits, b.labels, perr)
	}
	if err == nil {
		if _, cerr := cs.Close(); cerr != nil {
			rec.err[first] = errors.Join(rec.err[first], fmt.Errorf("close session: %w", cerr))
		}
	}
}

// close stops the listener and waits for the accept loop, then the server.
func (s *httpSystem) close() error {
	for _, tr := range s.conns {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	return err
}
