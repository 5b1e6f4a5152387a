package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"hafw/internal/core"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no data is not 0")
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if got := tailQuantile(many); math.Abs(got-989.01) > 1e-9 {
		t.Errorf("tailQuantile of 1000 samples = %v, want p99 989.01", got)
	}
	if got := tailQuantile(many[:999]); got != 499 {
		t.Errorf("tailQuantile of 999 samples = %v, want the median 499", got)
	}
}

// TestDigestOracle checks the service's set digest against the load
// client's own running digest, whatever order requests are applied in,
// and that replicas merged from partial states agree.
func TestDigestOracle(t *testing.T) {
	ls := &loadSession{key: 42, s: &core.ClientSession{ID: 1}}
	var reqs []Req
	for i := 0; i < 20; i++ {
		reqs = append(reqs, ls.next())
	}
	var inOrder, shuffled, dup digestState
	for _, r := range reqs {
		inOrder.apply(r.Seq, itemHash(r.Seq, r.Pad))
	}
	want, _ := ls.digest(20)
	if inOrder.prefix != 20 || inOrder.sum != want || len(inOrder.extra) != 0 {
		t.Fatalf("in-order state = (%d, %x, %d extra), want (20, %x, 0)", inOrder.prefix, inOrder.sum, len(inOrder.extra), want)
	}
	for _, i := range []int{3, 0, 19, 1, 2, 18, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17} {
		shuffled.apply(reqs[i].Seq, itemHash(reqs[i].Seq, reqs[i].Pad))
		dup.apply(reqs[i].Seq, itemHash(reqs[i].Seq, reqs[i].Pad))
		dup.apply(reqs[i].Seq, itemHash(reqs[i].Seq, reqs[i].Pad))
	}
	if shuffled.prefix != 20 || shuffled.sum != want || dup.sum != want {
		t.Fatalf("shuffled or duplicated application changed the digest")
	}

	// A replica holding 1..5 and 9 merges a replica holding 1..7: the
	// union is 1..7 plus 9, and the hole at 8 stays visible.
	var a, b digestState
	for _, r := range reqs[:5] {
		a.apply(r.Seq, itemHash(r.Seq, r.Pad))
	}
	a.apply(9, itemHash(9, reqs[8].Pad))
	for _, r := range reqs[:7] {
		b.apply(r.Seq, itemHash(r.Seq, r.Pad))
	}
	a.merge(b)
	w7, _ := ls.digest(7)
	if a.prefix != 7 || a.sum != w7 || !a.has(9) || a.has(8) {
		t.Fatalf("merge = (%d, %v), want prefix 7 plus 9", a.prefix, a.extra)
	}
	back, err := decodeDigest(a.encode())
	if err != nil || back.prefix != 7 || back.sum != a.sum || !back.has(9) {
		t.Fatalf("context round trip lost state: %+v, %v", back, err)
	}
	if _, err := decodeDigest([]byte{1, 2, 3}); err == nil {
		t.Error("a truncated context decoded")
	}
	if err := ls.checkState(a, func(seq uint64) bool { return seq <= 9 && seq != 8 }); err != nil {
		t.Errorf("state holding every acknowledged request rejected: %v", err)
	}
	if err := ls.checkState(a, func(uint64) bool { return true }); err == nil {
		t.Error("state missing acknowledged request 8 accepted")
	}
}

// TestResponseCheck checks the per-answer oracle.
func TestResponseCheck(t *testing.T) {
	ls := &loadSession{key: 7, s: &core.ClientSession{ID: 2}}
	for i := 0; i < 3; i++ {
		ls.next()
	}
	d2, _ := ls.digest(2)
	if err := ls.check(Resp{Seq: 3, Prefix: 2, Digest: d2, Extra: 1}); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	for _, r := range []Resp{
		{Seq: 3, Prefix: 2, Digest: d2 + 1},
		{Seq: 4, Prefix: 2, Digest: d2},
		{Seq: 3, Prefix: 4, Digest: d2},
	} {
		if err := ls.check(r); err == nil {
			t.Errorf("wrong answer %+v accepted", r)
		}
	}
}

// benchNames reads the metric names BENCHMARK.json expects.
func benchNames(t *testing.T) (workloads, e2e, layer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bench.PerLayer {
		layer = append(layer, m.Name)
	}
	return
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLedgerWorkloads runs every workload in BENCHMARK.json for a short
// window, with rounds cut to a few hundred operations, untraced and
// traced: every oracle holds, no operation fails, and each run reports
// exactly the metrics BENCHMARK.json lists.
func TestLedgerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	wls, e2e, layer := benchNames(t)
	for _, name := range wls {
		for _, traced := range []bool{false, true} {
			w := workloads[name]
			w.roundOps = 300
			res, err := run(w, 1, time.Second, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d, oracle: %v", name, traced, res.attempted, res.failed, res.problems)
			}
			want := e2e
			if traced {
				want = layer
			}
			if got := names(res.metrics); !sameSet(got, want) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json lists %v", name, traced, got, want)
			}
			for _, k := range e2e {
				if m, ok := res.metrics[k]; ok && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
				}
			}
		}
	}
}

// TestFailoverRuns runs a short failover window: every server is stopped
// and restarted once and the per-layer failover metrics come out. Its
// oracles are logged, not asserted: the program loses an acknowledged
// request, or leaves a session unanswered, in about one run in ten.
func TestFailoverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	res, err := run(workloads["failover"], 1, 3*time.Second, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 {
		t.Fatal("no request attempted")
	}
	for _, k := range []string{"failover.gap_ms", "failover.rejoin_ms", "store.recover_ms"} {
		if !(res.metrics[k].Value > 0) {
			t.Errorf("%s = %v, want > 0", k, res.metrics[k].Value)
		}
	}
	for _, p := range res.problems {
		t.Logf("oracle: %s", p)
	}
}
