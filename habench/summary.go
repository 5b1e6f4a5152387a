package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hafw/internal/core"
	"hafw/internal/ids"
	"hafw/internal/vsync"
	"hafw/internal/wire"
)

// traceSums adds the per-layer counters up over the timed parts of every
// round of a traced run.
type traceSums struct {
	secs              float64
	tc                traceCounts
	sends, reresolves uint64
	vc                map[string][2]float64 // phase → count, sum (ns)
	fsync             [2]float64
	alloc, gcs        uint64
	wal               int64

	// Measured once, on the last round's deployment.
	allocateUS, cloneUS, cloneAllocs, requestBytes float64
}

func (s *traceSums) add(rd round) {
	b, e := rd.begin, rd.end
	s.secs += e.at.Sub(b.at).Seconds()
	s.tc = s.tc.plus(e.tc.sub(b.tc))
	s.sends += e.clients.Sends - b.clients.Sends
	s.reresolves += e.clients.Reresolves - b.clients.Reresolves
	for k, v := range e.vc {
		d := s.vc[k.phase]
		d[0] += v[0] - b.vc[k][0]
		d[1] += v[1] - b.vc[k][1]
		s.vc[k.phase] = d
	}
	s.fsync[0] += e.fsync[0] - b.fsync[0]
	s.fsync[1] += e.fsync[1] - b.fsync[1]
	s.alloc += e.mem.TotalAlloc - b.mem.TotalAlloc
	s.gcs += uint64(e.mem.NumGC - b.mem.NumGC)
	s.wal += e.wal - b.wal
}

// extras times the unit database, the codec and the store from outside,
// on the deployment a round leaves behind. It stops the servers.
func (s *traceSums) extras(e *env, seed int64) {
	s.allocateUS = measureAllocate(e.cl.live()[0].DBSnapshot(benchUnit), e.cl.pids)
	from := ids.ClientEndpoint(e.clients[0].c.Self())
	clone, allocs, size := measureClone(wire.Envelope{
		From: from,
		To:   ids.ProcessEndpoint(1),
		Payload: vsync.ClientSend{
			Group:   ids.GroupName("bench-session"),
			ID:      ids.MsgID{Sender: from, Seq: 1},
			Payload: core.ClientRequest{Session: 1, Body: Req{Seq: 1, Pad: padFor(uint64(seed), 1)}},
		},
	})
	s.cloneUS, s.cloneAllocs, s.requestBytes = clone, allocs, float64(size)
	if e.cl.dataDir != "" {
		e.cl.stopAll() // closes every server's store
		for _, pid := range e.cl.pids {
			e.cl.cfg.tr.timeRecover(e.cl, pid)
		}
	}
}

// stealShare is the share of the machine's CPU time the hypervisor stole
// during the round's timed part.
func (rd round) stealShare() float64 {
	secs := rd.end.at.Sub(rd.begin.at).Seconds()
	return float64(rd.end.steal-rd.begin.steal) / clockTicks / (secs * float64(runtime.NumCPU()))
}

// clockTicks is USER_HZ, the unit of /proc/stat's counters on Linux.
const clockTicks = 100

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// summarize turns a run's rounds into its metrics: each end-to-end
// metric is the median over rounds of the round's value.
func summarize(res *runResult, rounds []round, sum *traceSums, tr *tracer, faults bool) {
	res.rounds = len(rounds)
	var steal, rates, p50s, p99s, cpus, startMS, gapMS, rejoinMS, lateMS []float64
	for i, rd := range rounds {
		rec := rd.rec
		rec.mu.Lock()
		res.attempted += rec.attempted
		res.failed += rec.failed
		for _, p := range rec.problems {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %s", i, p))
		}
		secs := rd.end.at.Sub(rd.begin.at).Seconds()
		steal = append(steal, rd.stealShare())
		rates = append(rates, float64(len(rec.reqMS))/secs)
		p50s = append(p50s, median(rec.reqMS))
		p99s = append(p99s, tailQuantile(rec.reqMS))
		cpus = append(cpus, usOf(rd.end.cpu-rd.begin.cpu)/float64(max(rec.attempted, 1)))
		fmt.Fprintf(os.Stderr, "round %d: %.0f op/s p50 %.4f p99 %.4f ms cpu %.1f us/op steal %.1f%% views %d\n",
			i, rates[i], p50s[i], p99s[i], cpus[i], 100*steal[i], rd.views)
		startMS = append(startMS, rec.startMS...)
		gapMS = append(gapMS, rec.gapMS...)
		rejoinMS = append(rejoinMS, rec.rejoinMS...)
		lateMS = append(lateMS, rec.lateMS...)
		rec.mu.Unlock()
		res.resent += rd.resends
	}
	if res.attempted == 0 {
		res.problems = append(res.problems, "no operation was timed")
		res.attempted, res.failed = 1, 1
	}
	e2e := map[string]metric{
		"setup_s":       {median(res.setupS), "s"},
		"req_per_s":     {median(rates), "req/s"},
		"req_p50_ms":    {median(p50s), "ms"},
		"req_p99_ms":    {median(p99s), "ms"},
		"cpu_us_per_op": {median(cpus), "us"},
		"peak_rss_mb":   {maxRSSMB(), "MB"},
	}
	if tr == nil {
		res.metrics = e2e
		return
	}

	m := res.metrics
	for k, v := range e2e {
		m["traced."+k] = v
	}
	ops := float64(res.attempted)
	var retries uint64
	for _, rd := range rounds {
		retries += rd.retries
	}
	m["core.reresolves_per_req"] = metric{ratio(float64(sum.reresolves), float64(sum.sends)), "ratio"}
	m["core.send_us"] = metric{median(tr.sendTimes()), "us"}
	m["core.resends_per_op"] = metric{(float64(retries) + float64(res.resent)) / ops, "count"}
	var msgs, bytes int64
	for i, l := range layers {
		msgs += sum.tc.sendMsgs[i]
		bytes += sum.tc.sendBytes[i]
		if l == "other" {
			continue
		}
		m["memnet.msgs_per_op."+l] = metric{float64(sum.tc.sendMsgs[i]) / ops, "count"}
		m["memnet.bytes_per_op."+l] = metric{float64(sum.tc.sendBytes[i]) / ops, "B"}
		m[l+".handle_us_per_op"] = metric{float64(sum.tc.handleNS[i]) / 1e3 / ops, "us"}
	}
	m["memnet.msgs_per_op"] = metric{float64(msgs) / ops, "count"}
	m["memnet.bytes_per_op"] = metric{float64(bytes) / ops, "B"}
	m["memnet.send_us_per_op"] = metric{float64(sum.tc.sendNS) / 1e3 / ops, "us"}
	m["service.apply_us_per_op"] = metric{float64(sum.tc.applyNS) / 1e3 / ops, "us"}
	m["service.snapshots_per_s"] = metric{float64(sum.tc.snaps) / sum.secs, "1/s"}
	m["service.snapshot_bytes"] = metric{ratio(float64(sum.tc.snapB), float64(sum.tc.snaps)), "B"}
	m["store.fsync_ms"] = metric{ratio(sum.fsync[1], sum.fsync[0]) / 1e6, "ms"}
	m["store.wal_bytes_per_op"] = metric{float64(sum.wal) / ops, "B"}
	m["store.recover_ms"] = metric{median(tr.recoverTimes()), "ms"}
	m["proc.alloc_bytes_per_op"] = metric{float64(sum.alloc) / ops, "B"}
	m["proc.gc_per_s"] = metric{float64(sum.gcs) / sum.secs, "1/s"}
	m["unitdb.allocate_us"] = metric{sum.allocateUS, "us"}
	m["wire.clone_us"] = metric{sum.cloneUS, "us"}
	m["wire.clone_allocs"] = metric{sum.cloneAllocs, "count"}
	m["wire.request_bytes"] = metric{sum.requestBytes, "B"}
	m["session.sessions_per_s"] = metric{0, "sessions/s"}
	if len(startMS) > 0 {
		m["session.sessions_per_s"] = metric{e2e["req_per_s"].Value, "sessions/s"}
	}
	m["session.start_p50_ms"] = metric{median(startMS), "ms"}
	m["session.start_p99_ms"] = metric{tailQuantile(startMS), "ms"}
	if faults {
		// Only failover changes views inside its window.
		for _, ph := range phases {
			m["core.viewchange_ms."+ph] = metric{ratio(sum.vc[ph][1], sum.vc[ph][0]) / 1e6, "ms"}
		}
		m["failover.gap_ms"] = metric{median(gapMS), "ms"}
		m["failover.rejoin_ms"] = metric{median(rejoinMS), "ms"}
		m["load.lateness_p99_ms"] = metric{tailQuantile(lateMS), "ms"}
	}
}

func printTable(f *os.File, res *runResult) {
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "rounds %d  attempted %d  failed %d  resent %d  set-ups %.4f s\n",
		res.rounds, res.attempted, res.failed, res.resent, res.setupS)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	fmt.Fprint(f, b.String())
}
