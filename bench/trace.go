package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer, or
// around a whole op (Parent == noSpan). Op ties every span of one op
// together; Lane is the client or worker that ran it, so spans on one
// lane nest and render as a stack in a trace viewer.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	Parent     int
	Op         int
	Lane       int
}

const noSpan = -1

// tracer keeps spans in memory for the length of a traced run; they are
// written once at the end. A nil *tracer records nothing, so untraced
// runs call the same code with no span cost beyond a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an interval measured elsewhere (a request's wait before
// it was sent), given as absolute times.
func (t *tracer) record(name string, start, end time.Time, parent, op, lane int) int {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

// retime moves an open root span's start back to when its op was due,
// so an open-loop op's span covers the time it waited to be sent.
func (t *tracer) retime(id int, start time.Time) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Start = start.Sub(t.origin)
	t.mu.Unlock()
}

// snapshot returns the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span index, the span's duration minus the part
// of its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		out[i] = s.End - s.Start - unionLength(iv)
	}
	return out
}

func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// unattributedFrac is the share of op time (root spans named "op")
// that no child span covers: benchmark glue that the per-layer table
// cannot place.
func unattributedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var rootTotal, rootSelf time.Duration
	for i, s := range spans {
		if s.Parent == noSpan && s.Name == "op" {
			rootTotal += s.End - s.Start
			rootSelf += self[i]
		}
	}
	if rootTotal == 0 {
		return 0
	}
	return float64(rootSelf) / float64(rootTotal)
}

// selfByName sums self time per span name, for the layer table.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// spanCost measures what one begin/end pair costs on this host, the
// basis of trace.overhead_frac.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", noSpan, i, 0))
	}
	return time.Since(start) / n
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open offline.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane + 1,
			Args: map[string]int{"op": s.Op, "parent": s.Parent, "id": i},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// pprofGroups maps a reported cpu.* metric to the packages it sums.
var pprofGroups = []struct {
	metric string
	match  func(pkg, fn string) bool
}{
	{"cpu.vm_frac", pkgIs("mperf/internal/vm")},
	{"cpu.machine_frac", pkgIs("mperf/internal/machine")},
	{"cpu.mem_frac", pkgIs("mperf/internal/mem")},
	{"cpu.pmu_frac", pkgIs("mperf/internal/pmu", "mperf/internal/kernel", "mperf/internal/sbi", "mperf/internal/miniperf")},
	{"cpu.json_frac", pkgIs("encoding/json")},
	{"cpu.net_frac", func(pkg, _ string) bool {
		return pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
			pkg == "syscall" || pkg == "internal/runtime/syscall"
	}},
	{"cpu.gc_frac", func(pkg, fn string) bool { return pkg == "runtime" && isGCFunc(fn) }},
}

func pkgIs(pkgs ...string) func(string, string) bool {
	return func(pkg, _ string) bool {
		for _, p := range pkgs {
			if pkg == p {
				return true
			}
		}
		return false
	}
}

// isGCFunc reports whether a runtime function belongs to the garbage
// collector's mark and sweep work. The list is by name and therefore
// approximate; allocation itself (mallocgc) is not counted.
func isGCFunc(fn string) bool {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, p := range []string{"gc", "scan", "mark", "greyobject", "findObject", "sweep", "bgsweep", "wbBuf", "(*gcWork)", "(*mspan).sweep", "(*gcControllerState)"} {
		if strings.HasPrefix(name, p) || strings.Contains(name, "."+p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol as pprof prints it:
// everything before the first '.' after the last '/'.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parsePprofTop reads `go tool pprof -top` output and returns each
// function's flat seconds and the profile's total sample seconds.
func parsePprofTop(text string) (flat map[string]float64, total float64, err error) {
	flat = make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "Showing nodes accounting for") {
			// "... for 9.50s, 100% of 9.50s total"
			if i := strings.LastIndex(line, " of "); i >= 0 {
				f := strings.Fields(line[i+4:])
				if len(f) > 0 {
					if total, err = parseDuration(f[0]); err != nil {
						return nil, 0, err
					}
				}
			}
			continue
		}
		if strings.HasPrefix(line, "flat ") {
			inTable = true
			continue
		}
		if !inTable || line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		v, perr := parseDuration(f[0])
		if perr != nil {
			return nil, 0, fmt.Errorf("pprof top line %q: %w", line, perr)
		}
		fn := strings.Join(f[5:], " ")
		fn = strings.TrimSuffix(fn, " (inline)")
		flat[fn] += v
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof top: no total found")
	}
	return flat, total, sc.Err()
}

// parseDuration reads pprof's sample values ("1.20s", "350ms", "0").
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"min", 60}, {"hrs", 3600}, {"h", 3600}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// sharesFromTop groups parsed flat times into the cpu.* metrics.
func sharesFromTop(flat map[string]float64, total float64) map[string]float64 {
	out := make(map[string]float64)
	for _, g := range pprofGroups {
		out[g.metric] = 0
	}
	for fn, v := range flat {
		pkg := funcPackage(fn)
		for _, g := range pprofGroups {
			if g.match(pkg, fn) {
				out[g.metric] += v / total
			}
		}
	}
	return out
}

// pprofTop runs the toolchain's pprof over a CPU profile.
func pprofTop(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}
