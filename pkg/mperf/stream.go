package mperf

import (
	"context"
	"errors"
)

// CollectorResult is one collector's completed slice of a profile,
// emitted by RunStream as soon as that collector finishes. Seq is the
// collector's 0-based index in the declared order, which is also the
// order results are emitted in; Partial carries only the fields this
// collector populated (plus the profile header), so a streaming
// consumer can render sections as they arrive.
type CollectorResult struct {
	Collector string   `json:"collector"`
	Seq       int      `json:"seq"`
	Partial   *Profile `json:"partial,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// NewProfile returns an empty profile carrying the session's platform
// and workload header — the shell RunStream partials and merged
// results are built in. Exported for transports that assemble
// profiles outside Session.Run.
func (s *Session) NewProfile() *Profile {
	return &Profile{
		Platform: platformInfo(s.plat),
		Workload: s.spec.Name,
	}
}

// RunStream runs the collectors one after another, in declared order,
// on the caller's goroutine. Each collector fills a fresh partial
// profile on its own machine, and sink (if non-nil) receives that
// partial as soon as the collector finishes. Each partial is folded,
// in declared order, into one Profile by mergeSection, with each
// failure recorded as a typed collector error and CompileStats
// counting the programs this call compiled or loaded. The merged
// profile is the same with or without a sink. This is the only
// collector runner: Run is RunStream without a sink.
//
// If ctx is cancelled, collectors that have not started are skipped
// (recorded as collector errors), nothing more is streamed, and the
// context error is returned alongside the partial profile. A running
// collector is not interrupted: simulation is not interruptible
// mid-run.
func (s *Session) RunStream(ctx context.Context, sink func(CollectorResult), collectors ...Collector) (*Profile, error) {
	if len(collectors) == 0 {
		return nil, errors.New("mperf: Run needs at least one collector")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	compiled0, hits0, disk0 := s.compiled.Load(), s.hits.Load(), s.diskHits.Load()

	final := s.NewProfile()
	for i, c := range collectors {
		partial := s.NewProfile()
		partial.Collectors = []string{c.Name()}
		err := s.collect(ctx, c, partial)
		final.Collectors = append(final.Collectors, c.Name())
		mergeSection(final, partial)
		if err != nil {
			final.Errors = append(final.Errors, collectorError(c.Name(), err))
		}
		if sink != nil && ctx.Err() == nil {
			res := CollectorResult{Collector: c.Name(), Seq: i, Partial: partial}
			if err != nil {
				res.Error = err.Error()
			}
			sink(res)
		}
	}
	final.CompileStats = &CompileStats{
		Compiled:  s.compiled.Load() - compiled0,
		CacheHits: s.hits.Load() - hits0,
		DiskHits:  s.diskHits.Load() - disk0,
	}
	return final, ctx.Err()
}

// mergeSection folds one collector's partial profile into dst with
// one rule for every collector, built-in or registered: each section
// the partial populated replaces dst's. A zero IPC (stat over an event
// set without cycles or instructions, a collector that does not report
// one) never replaces another; the collectors that do report one
// measure the same deterministic execution, so the profile's IPC does
// not depend on collector order.
func mergeSection(dst, src *Profile) {
	if src.Events != nil {
		dst.Events = src.Events
		dst.ElapsedSeconds = src.ElapsedSeconds
	}
	if src.IPC != 0 {
		dst.IPC = src.IPC
	}
	if src.Recording != nil || src.SampleCount != 0 {
		dst.Recording = src.Recording
		dst.SampleCount = src.SampleCount
		dst.LostSamples = src.LostSamples
		dst.SamplingLeader = src.SamplingLeader
		dst.Hotspots = src.Hotspots
	}
	if src.Roofline != nil {
		dst.Roofline = src.Roofline
	}
	if src.TopDown != nil {
		dst.TopDown = src.TopDown
	}
}
