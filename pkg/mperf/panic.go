package mperf

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"mperf/pkg/mperf/faultinject"
)

// PanicError is a contained panic: a collector, a program build, or a
// daemon worker panicked, and the recovery site converted the unwind
// into this typed error instead of letting it kill the process. Op
// names the site ("collector record", "compile matmul", "mperfd
// worker"), Value is the panic value, Stack the goroutine stack at
// recovery time.
type PanicError struct {
	Op    string
	Value string
	Stack string
}

// NewPanicError builds a PanicError from a recovered panic value,
// capturing the current goroutine's stack. It is exported for recovery
// sites outside this package (the mperfd worker pool).
func NewPanicError(op string, recovered any) *PanicError {
	return &PanicError{
		Op:    op,
		Value: fmt.Sprint(recovered),
		Stack: string(debug.Stack()),
	}
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %s", e.Op, e.Value)
}

// IsPanic reports whether err carries a contained panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// collectorError builds the Profile's typed per-collector error entry,
// marking contained panics so callers can distinguish "this collector
// cannot run here" from "this collector crashed". RunStream, and so
// Run, records every collector failure through it.
func collectorError(name string, err error) CollectorError {
	ce := CollectorError{Collector: name, Message: err.Error()}
	var pe *PanicError
	if errors.As(err, &pe) {
		ce.Panic = true
		ce.Stack = pe.Stack
	}
	return ce
}

// collect runs one collector with panic containment and the chaos
// fault points; a counting collector is served by its counting run
// instead of its own Collect. Any panic out of Collect — injected or
// real — is recovered into a *PanicError, so one crashing collector
// degrades the Profile instead of unwinding the session (or the
// daemon worker) it runs on. The armed fault points fire inside the contained
// region: collector.panic panics here, collector.slow stalls
// (honouring ctx, which carries the server's request deadline), and
// collector.fail returns a typed injected error.
func (s *Session) collect(ctx context.Context, c Collector, p *Profile, run *countingRun) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError("collector "+c.Name(), r)
		}
	}()
	if faultinject.Enabled() {
		if faultinject.Fire(faultinject.CollectorPanic) {
			panic(fmt.Sprintf("%s armed", faultinject.CollectorPanic))
		}
		if err := faultinject.Sleep(ctx, faultinject.CollectorSlow); err != nil {
			return err
		}
		if err := faultinject.Error(faultinject.CollectorFail); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if run != nil {
		return run.serve(s, c.(countingCollector), p)
	}
	return c.Collect(s, p)
}
