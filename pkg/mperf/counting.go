package mperf

import (
	"slices"

	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/vm"
)

// countingCollector is a collector whose whole measurement is one
// miniperf stat over the raw build: it names the events it needs and
// fills its section from their counts. stat and topdown are the two.
type countingCollector interface {
	Collector
	// events returns the events to count, or why this collector cannot
	// count on the session's platform.
	events(s *Session) ([]isa.EventCode, error)
	// fill writes the collector's section from a counting run's values,
	// which hold at least the collector's events.
	fill(s *Session, p *Profile, res *miniperf.StatResult) error
}

// countingRun is one execution of the raw build under miniperf stat,
// counting the union of the events of the collectors it serves. It
// executes at most once, at the turn of the first member that gets the
// program; later members read its values. A run whose collector
// cannot count on the platform is done from the start, its result that
// error.
type countingRun struct {
	events []isa.EventCode

	done     bool
	res      *miniperf.StatResult
	err      error
	panicked bool
	panicVal any
}

// countAlone is a counting collector's Collect: a counting run of its
// own events, served to it alone.
func countAlone(s *Session, c countingCollector, p *Profile) error {
	evs, err := c.events(s)
	return (&countingRun{events: evs, done: err != nil, err: err}).serve(s, c, p)
}

// countingRuns groups the counting collectors among cs into counting
// runs, first-fit in request order: each joins the first run whose
// events, with its own added, the platform's PMU can count at once,
// or starts a run of its own. The result is aligned with cs and nil
// for the other collectors. A run of one counts exactly its
// collector's events, as Collect does.
func (s *Session) countingRuns(cs []Collector) []*countingRun {
	runs := make([]*countingRun, len(cs))
	var open []*countingRun
	for i, c := range cs {
		cc, ok := c.(countingCollector)
		if !ok {
			continue
		}
		evs, err := cc.events(s)
		if err != nil {
			runs[i] = &countingRun{done: true, err: err}
			continue
		}
		for _, r := range open {
			if u := unionEvents(r.events, evs); miniperf.CanCount(s.plat, u) {
				r.events, runs[i] = u, r
				break
			}
		}
		if runs[i] == nil {
			runs[i] = &countingRun{events: evs}
			open = append(open, runs[i])
		}
	}
	return runs
}

// unionEvents is a followed by the events of b that a lacks.
func unionEvents(a, b []isa.EventCode) []isa.EventCode {
	u := slices.Clone(a)
	for _, ev := range b {
		if !slices.Contains(u, ev) {
			u = append(u, ev)
		}
	}
	return u
}

// serve is collector c's turn on run r. c gets the raw build as a run
// of its own would, so compile failures and CompileStats stay per
// collector: a build failure is c's alone and leaves r for the next
// member to execute. Then r executes if it is not done, and c fills
// its section. A failure of the execution itself — a counter that
// cannot be opened, a workload trap, a panic — is deterministic, so it
// reaches every member, each under its own name, as separate runs
// would report it.
func (r *countingRun) serve(s *Session, c countingCollector, p *Profile) error {
	prog, err := s.Program(false, false)
	if err != nil {
		return err
	}
	if !r.done {
		r.execute(s, prog)
	}
	if r.panicked {
		panic(r.panicVal)
	}
	if r.err != nil {
		return r.err
	}
	return c.fill(s, p, r.res)
}

// execute counts r's events around one run of the workload on a fresh
// machine. A panic is recorded for the later members and passed on to
// the caller's containment.
func (r *countingRun) execute(s *Session, prog *vm.Program) {
	r.done = true
	defer func() {
		if v := recover(); v != nil {
			r.panicked, r.panicVal = true, v
			panic(v)
		}
	}()
	m := s.newMachine(prog)
	defer m.Release()
	tool, err := miniperf.Attach(m)
	if err != nil {
		r.err = err
		return
	}
	r.res, r.err = tool.Stat(r.events, func() error { return s.spec.Run(m) })
}
