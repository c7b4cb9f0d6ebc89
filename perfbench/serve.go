package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"hyperear"
	"hyperear/internal/core"
	"hyperear/internal/obs"
	"hyperear/internal/server"
	"hyperear/internal/sessionstore"
)

// walFsync is the stream-wal store's fsync policy. The daemon defaults to
// fsync=always, which puts one fsync of the shared disk on every chunk's
// path: with two clients on a 2-core host, three 10 s runs at always read
// a chunk p50 of 3.7–5.2 ms against 1.3–1.8 ms at interval, and the disk,
// not the code, set that spread. Interval (100 ms group commit) keeps the
// append path the same — framing, write, state apply, compaction — and
// moves only the fsync to the background ticker.
const (
	walFsync         = sessionstore.FsyncInterval
	walFsyncInterval = 100 * time.Millisecond
)

// daemonConfig builds the server.Config cmd/hyperearservd builds from its
// default flags: the S4 profile, an obs registry with no trace sink, no
// access log, and every sizing knob at its zero default (Workers, Queue,
// BatchWindow, metrics window, SLO) so Normalize picks it.
func daemonConfig() server.Config {
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	phone := hyperear.GalaxyS4()
	pipe := core.DefaultConfig(hyperear.DefaultBeacon(), phone.SampleRate, phone.MicSeparation)
	pipe.Obs = o
	return server.Config{
		RequestTimeout:     30 * time.Second,
		MaxBodyBytes:       64 << 20,
		SessionIdleTimeout: 2 * time.Minute,
		MaxSessions:        64,
		Pipeline:           pipe,
		Obs:                o,
	}
}

// service is one running in-process server on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	store  *sessionstore.FileStore
	dir    string
	base   string
	client *http.Client
	done   chan error
}

// startService starts the daemon-equivalent server. withStore adds the
// stream-wal FileStore in a fresh directory under tmpRoot.
func startService(cfg server.Config, withStore bool, tmpRoot string, clients int) (*service, error) {
	svc := &service{done: make(chan error, 1)}
	if withStore {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		svc.dir = dir
		st, err := sessionstore.Open(dir, sessionstore.Options{
			Fsync:         walFsync,
			FsyncInterval: walFsyncInterval,
			SnapshotBytes: 8 << 20, // the daemon's -wal-snapshot default
			Obs:           cfg.Obs,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		svc.store = st
		cfg.Store = st
	}
	svc.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.srv.FinishShutdown()
		svc.closeStore()
		return nil, err
	}
	svc.base = "http://" + ln.Addr().String()
	svc.hs = &http.Server{Handler: svc.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		err := svc.hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		svc.done <- err
	}()
	// One connection per client goroutine, kept alive across requests.
	svc.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return svc, nil
}

func (s *service) closeStore() error {
	if s.store == nil {
		return nil
	}
	err := s.store.Flush()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	s.store = nil
	return err
}

// stop runs the daemon's drain sequence, waits for the serving goroutine
// and removes the store directory.
func (s *service) stop() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	s.srv.FinishShutdown()
	s.client.CloseIdleConnections()
	if cerr := s.closeStore(); err == nil {
		err = cerr
	}
	return err
}

// counters fetches the server's /metrics snapshot (JSON form).
func (s *service) counters() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("/metrics: %w", err)
	}
	return snap, nil
}

// counterDelta returns after−before for one counter.
func counterDelta(before, after obs.Snapshot, name string) uint64 {
	return after.Counters[name] - before.Counters[name]
}

// prefixDelta sums after−before over every counter whose name starts
// with prefix.
func prefixDelta(before, after obs.Snapshot, prefix string) uint64 {
	var n uint64
	for k, v := range after.Counters {
		if strings.HasPrefix(k, prefix) {
			n += v - before.Counters[k]
		}
	}
	return n
}
