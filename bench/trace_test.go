package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms2d(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestSelfTimes(t *testing.T) {
	// op [0,100] with children [10,40] and [30,60] (overlapping: they
	// cover [10,60] once) and [90,120] (clipped to the parent's end);
	// the first child has a grandchild [15,25].
	spans := []span{
		{Name: "op", Start: 0, End: ms2d(100), Parent: noSpan},
		{Name: "a", Start: ms2d(10), End: ms2d(40), Parent: 0},
		{Name: "b", Start: ms2d(30), End: ms2d(60), Parent: 0},
		{Name: "c", Start: ms2d(90), End: ms2d(120), Parent: 0},
		{Name: "a.1", Start: ms2d(15), End: ms2d(25), Parent: 1},
	}
	want := []time.Duration{ms2d(40), ms2d(20), ms2d(30), ms2d(30), ms2d(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if f := unattributedFrac(spans); f < 0.3999 || f > 0.4001 {
		t.Errorf("unattributed = %v, want 0.4", f)
	}
	if s := selfByName(spans); s["op"] != ms2d(40) || s["a.1"] != ms2d(10) {
		t.Errorf("selfByName = %v", s)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, 0, 0)
	tr.end(id)
	tr.retime(id, time.Now())
	if id != noSpan || tr.record("y", time.Now(), time.Now(), id, 0, 0) != noSpan {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestParsePprofTop(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "pprof_top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	flat, total, err := parsePprofTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("total = %v, want 10", total)
	}
	if v := flat["mperf/internal/vm.(*Machine).callFused"]; v != 2 {
		t.Errorf("callFused flat = %v, want 2", v)
	}
	shares := sharesFromTop(flat, total)
	for metric, want := range map[string]float64{
		"cpu.vm_frac":      0.25,  // 2s + 500ms
		"cpu.machine_frac": 0.30,  // 3s
		"cpu.mem_frac":     0.10,  // 1s
		"cpu.pmu_frac":     0.035, // 200ms + 150ms
		"cpu.json_frac":    0.04,  // 400ms
		"cpu.net_frac":     0.031, // 300ms + 10ms
		"cpu.gc_frac":      0.09,  // 600ms + 250ms + 50ms
	} {
		if !near(shares[metric], want) {
			t.Errorf("%s = %v, want %v", metric, shares[metric], want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"mperf/internal/vm.(*Machine).call":         "mperf/internal/vm",
		"mperf/internal/vm.buildExec.func1":         "mperf/internal/vm",
		"runtime.mallocgc":                          "runtime",
		"encoding/json.(*encodeState).string":       "encoding/json",
		"net/http.(*conn).serve":                    "net/http",
		"mperf/pkg/mperfd/client.(*Client).Profile": "mperf/pkg/mperfd/client",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
