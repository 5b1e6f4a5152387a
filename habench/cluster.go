package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/metrics"
	"hafw/internal/store"
	"hafw/internal/testutil"
	"hafw/internal/transport"
	"hafw/internal/transport/memnet"
)

// The deployment every workload runs against: haload's defaults (3
// servers, so R = 3; B = 1; T = 50 ms) and its protocol timers, which
// stretch under the race detector as in the repository's own harnesses.
const (
	numServers   = 3
	numBackups   = 1
	propagation  = 50 * time.Millisecond
	fdInterval   = 10 * time.Millisecond * testutil.TimeScale
	fdTimeout    = 60 * time.Millisecond * testutil.TimeScale
	roundTimeout = 100 * time.Millisecond * testutil.TimeScale
	ackInterval  = 15 * time.Millisecond * testutil.TimeScale
	idleTimeout  = 30 * time.Second
	benchUnit    = ids.UnitName("bench")
)

// clusterConfig selects what differs between workloads.
type clusterConfig struct {
	// latency is memnet's one-way delay.
	latency time.Duration
	// durable gives every server a data directory with the interval fsync
	// policy, hanode's default.
	durable bool
	// fdTimeout, if set, replaces haload's failure-detector timeout.
	fdTimeout time.Duration
	// tr, if set, wraps every endpoint, service and client (traced run).
	tr *tracer
}

// cluster is an in-process deployment of core servers on memnet.
type cluster struct {
	cfg     clusterConfig
	net     *memnet.Network
	pids    []ids.ProcessID
	dataDir string

	mu       sync.Mutex
	servers  map[ids.ProcessID]*core.Server
	services map[ids.ProcessID]*digestService
	regs     []*metrics.Registry // every server registry ever created
	nextCID  ids.ClientID
}

func newCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{
		cfg:      cfg,
		net:      memnet.New(memnet.Config{Latency: cfg.latency}),
		servers:  make(map[ids.ProcessID]*core.Server),
		services: make(map[ids.ProcessID]*digestService),
		nextCID:  5000,
	}
	if cfg.durable {
		dir, err := os.MkdirTemp("", "habench-")
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
	}
	for i := 1; i <= numServers; i++ {
		c.pids = append(c.pids, ids.ProcessID(i))
	}
	for _, pid := range c.pids {
		if err := c.start(pid); err != nil {
			c.close()
			return nil, err
		}
	}
	if err := c.waitSettled(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) serverDir(pid ids.ProcessID) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("p%d", pid))
}

// attach creates an endpoint, wrapped for tracing when the run is traced.
func (c *cluster) attach(ep ids.EndpointID, server bool) (transport.Transport, error) {
	raw, err := c.net.Attach(ep)
	if err != nil {
		return nil, err
	}
	if c.cfg.tr == nil {
		return raw, nil
	}
	return c.cfg.tr.wrapTransport(raw, server), nil
}

// start launches (or relaunches, recovering from its data directory) one
// server.
func (c *cluster) start(pid ids.ProcessID) error {
	tr, err := c.attach(ids.ProcessEndpoint(pid), true)
	if err != nil {
		return err
	}
	svc := newDigestService()
	var service core.Service = svc
	if c.cfg.tr != nil {
		service = c.cfg.tr.wrapService(svc)
	}
	reg := metrics.NewRegistry()
	var dir string
	if c.cfg.durable {
		dir = c.serverDir(pid)
	}
	fdAfter := fdTimeout
	if c.cfg.fdTimeout != 0 {
		fdAfter = c.cfg.fdTimeout
	}
	srv, err := core.NewServer(core.Config{
		Self:      pid,
		Transport: tr,
		World:     c.pids,
		Units: []core.UnitConfig{{
			Unit:              benchUnit,
			Service:           service,
			Backups:           numBackups,
			PropagationPeriod: propagation,
			IdleTimeout:       idleTimeout,
		}},
		Metrics:      reg,
		FDInterval:   fdInterval,
		FDTimeout:    fdAfter,
		RoundTimeout: roundTimeout,
		AckInterval:  ackInterval,
		DataDir:      dir,
		Fsync:        store.FsyncInterval,
	})
	if err != nil {
		_ = tr.Close()
		return err
	}
	if err := srv.Start(); err != nil {
		srv.Stop()
		return err
	}
	c.mu.Lock()
	c.servers[pid] = srv
	c.services[pid] = svc
	c.regs = append(c.regs, reg)
	c.mu.Unlock()
	return nil
}

// stop crashes a server: the network drops it first, then the process is
// torn down, leaving its data directory for restart.
func (c *cluster) stop(pid ids.ProcessID) {
	c.net.Crash(ids.ProcessEndpoint(pid))
	c.mu.Lock()
	srv := c.servers[pid]
	delete(c.servers, pid)
	delete(c.services, pid)
	c.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// restart relaunches a stopped server from its data directory.
func (c *cluster) restart(pid ids.ProcessID) error {
	c.net.Revive(ids.ProcessEndpoint(pid))
	return c.start(pid)
}

// live returns the running servers in process-ID order.
func (c *cluster) live() []*core.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*core.Server
	for _, pid := range c.pids {
		if s := c.servers[pid]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

func (c *cluster) service(pid ids.ProcessID) *digestService {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.services[pid]
}

func (c *cluster) registries() []*metrics.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*metrics.Registry(nil), c.regs...)
}

// formed reports whether every running server sees every running server
// in the content group.
func (c *cluster) formed() bool {
	live := c.live()
	for _, s := range live {
		if len(s.GroupMembers(core.ContentGroup(benchUnit))) != len(live) {
			return false
		}
	}
	return true
}

// agreed reports whether the cluster is formed and every running unit
// database has the same checksum.
func (c *cluster) agreed() bool {
	if !c.formed() {
		return false
	}
	live := c.live()
	ref := live[0].DBChecksum(benchUnit)
	for _, s := range live[1:] {
		if s.DBChecksum(benchUnit) != ref {
			return false
		}
	}
	return true
}

// settleTimeout bounds the wait for a new deployment to settle. A
// healthy one settles in well under a second; now and then a state
// exchange at formation never completes (see README, Known costs).
const settleTimeout = 3 * time.Second

var errUnsettled = errors.New("deployment did not settle")

// settled reports whether the cluster is formed, every running unit
// database agrees and no server has a state exchange open.
func (c *cluster) settled() bool {
	if !c.agreed() {
		return false
	}
	for _, s := range c.live() {
		for _, u := range s.Status().Units {
			if u.ExchangeOpen {
				return false
			}
		}
	}
	return true
}

func (c *cluster) waitSettled() error {
	if waitFor(settleTimeout, 2*time.Millisecond, c.settled, "settling") != nil {
		return fmt.Errorf("%w within %v", errUnsettled, settleTimeout)
	}
	return nil
}

// primaryOf asks the first running server for a session's primary.
func (c *cluster) primaryOf(sid ids.SessionID) ids.ProcessID {
	for _, s := range c.live() {
		if p := s.PrimaryOf(benchUnit, sid); p != ids.Nil {
			return p
		}
	}
	return ids.Nil
}

// newClient attaches one framework client with core.Client's default
// request timeout and retries.
func (c *cluster) newClient() (*core.Client, error) {
	c.mu.Lock()
	c.nextCID++
	cid := c.nextCID
	c.mu.Unlock()
	tr, err := c.attach(ids.ClientEndpoint(cid), false)
	if err != nil {
		return nil, err
	}
	return core.NewClient(core.ClientConfig{
		Self:      cid,
		Transport: tr,
		Servers:   append([]ids.ProcessID(nil), c.pids...),
	})
}

// stopAll stops every running server.
func (c *cluster) stopAll() {
	c.mu.Lock()
	servers := make([]*core.Server, 0, len(c.servers))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	c.servers = map[ids.ProcessID]*core.Server{}
	c.mu.Unlock()
	for _, s := range servers {
		s.Stop()
	}
}

// close stops every server, closes the network and removes the data
// directory.
func (c *cluster) close() {
	c.stopAll()
	c.net.Close()
	if c.dataDir != "" {
		_ = os.RemoveAll(c.dataDir)
	}
}

// waitFor polls cond every tick until it holds or timeout elapses.
func waitFor(timeout, tick time.Duration, cond func() bool, what string) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached within %v", what, timeout)
		}
		time.Sleep(tick)
	}
	return nil
}
