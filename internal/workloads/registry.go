package workloads

import (
	"fmt"
	"sort"
	"strings"

	"mperf/internal/ir"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/vm"
)

// Spec is one named, fully-wired workload: how to build its IR, how to
// seed its data, and how to invoke its entry point. Everything that
// previously required a hand-written switch over workload names
// (machine construction in the CLIs, the experiment harness, the
// examples) now flows through a Spec resolved from the registry.
type Spec struct {
	// Name is the registry key ("sqlite", "matmul", ...).
	Name string
	// Description is one line for help text and workload listings.
	Description string
	// Entry is the IR function the workload runs.
	Entry string
	// Build adds the workload's functions and globals to the module.
	Build func(mod *ir.Module) error
	// Seed writes the workload's input data into a loaded machine.
	// May be nil when the workload needs no seeding.
	Seed func(m *vm.Machine) error
	// Args computes the entry-point arguments (raw bits) on a loaded
	// machine — global addresses are only known after vm.New.
	Args func(m *vm.Machine) ([]uint64, error)
}

// Run seeds nothing and executes the workload's entry point once.
func (s *Spec) Run(m *vm.Machine) error {
	args, err := s.Args(m)
	if err != nil {
		return err
	}
	_, err = m.Run(s.Entry, args...)
	return err
}

// BuildProgram is the pure compile path of a workload: it builds the
// module, optionally runs it through the platform's vectorizer
// pipeline (with or without roofline instrumentation), and compiles it
// into an immutable vm.Program. When the spec has a Seed, its
// deterministic output is baked into the program's initial data image,
// so instantiating a machine is a memory copy and needs no re-seeding
// (Seed itself stays a per-instance operation for callers that manage
// machines directly). The result depends only on (workload, params,
// pipeline profile, lanes, instrument) — platforms whose pipeline
// configuration matches may share one Program.
func (s *Spec) BuildProgram(plat *platform.Platform, optimize, instrument bool) (*vm.Program, error) {
	mod := ir.NewModule(s.Name)
	if err := s.Build(mod); err != nil {
		return nil, fmt.Errorf("workloads: building %s: %w", s.Name, err)
	}
	if optimize {
		profile, err := passes.ProfileByName(plat.VectorizerProfile)
		if err != nil {
			return nil, fmt.Errorf("workloads: %w", err)
		}
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile:    profile,
			Lanes:      plat.Core.VectorLanes32,
			Interleave: true,
			Instrument: instrument,
		}); err != nil {
			return nil, fmt.Errorf("workloads: pipeline for %s: %w", s.Name, err)
		}
	}
	prog, err := vm.Compile(mod)
	if err != nil {
		return nil, fmt.Errorf("workloads: compiling %s: %w", s.Name, err)
	}
	if s.Seed != nil {
		m := vm.NewMachine(prog, plat)
		if err := s.Seed(m); err != nil {
			return nil, fmt.Errorf("workloads: seeding %s: %w", s.Name, err)
		}
		if err := prog.SetDataImage(m.SnapshotData()); err != nil {
			return nil, err
		}
		m.Release()
	}
	return prog, nil
}

// Params sizes a workload resolved from the registry. Zero values mean
// the workload's defaults; fields irrelevant to a given workload are
// ignored, so one Params can parameterize a whole matrix sweep.
type Params struct {
	// Sqlite overrides the synthetic sqlite3 configuration.
	Sqlite *SqliteConfig
	// MatmulN and MatmulTile size the tiled SGEMM (defaults 128/32).
	MatmulN, MatmulTile int
	// Elems sizes every array kernel but memset (default 65536).
	// dot, triad and the three other STREAM kernels need a multiple
	// of 16.
	Elems int
	// MemsetWords is the memset buffer length in 8-byte words
	// (default 1Mi words = 8 MiB), a multiple of 16.
	MemsetWords int
}

func (p Params) elems() int {
	if p.Elems > 0 {
		return p.Elems
	}
	return 1 << 16
}

func (p Params) memsetWords() int {
	if p.MemsetWords > 0 {
		return p.MemsetWords
	}
	return 1 << 20
}

// Fingerprint renders the params as a stable, canonical cache-key
// component: two Params build identical workload modules if and only
// if their fingerprints match (fields a workload ignores are still
// included — a coarser key only costs a duplicate compile, never a
// wrong hit).
func (p Params) Fingerprint() string {
	sq := "-"
	if p.Sqlite != nil {
		c := *p.Sqlite
		sq = fmt.Sprintf("%d.%d.%d.%d.%d.%d", c.ProgLen, c.Rows, c.Queries, c.CellArea, c.TextArea, c.PatLen)
	}
	return fmt.Sprintf("sqlite=%s n=%d tile=%d elems=%d memset=%d",
		sq, p.MatmulN, p.MatmulTile, p.Elems, p.MemsetWords)
}

// registry maps every workload name to its Spec constructor: the two
// hand-wired workloads and every entry of the kernels table.
var registry = func() map[string]func(Params) (*Spec, error) {
	r := map[string]func(Params) (*Spec, error){
		"sqlite": func(p Params) (*Spec, error) {
			cfg := DefaultSqliteConfig()
			if p.Sqlite != nil {
				cfg = *p.Sqlite
			}
			return SqliteSpec(cfg), nil
		},
		"matmul": func(p Params) (*Spec, error) {
			n, tile := p.MatmulN, p.MatmulTile
			if n == 0 {
				n = 128
			}
			if tile == 0 {
				tile = 32
			}
			return MatmulSpec(n, tile)
		},
	}
	for i := range kernels {
		r[kernels[i].name] = kernels[i].spec
	}
	return r
}()

// Names returns the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a workload by registry name (case-insensitive) and
// builds its Spec for the given parameters.
func Lookup(name string, p Params) (*Spec, error) {
	f, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(p)
}

// SqliteSpec wires the synthetic sqlite3 workload (§5.1's hotspot
// study) for the given configuration.
func SqliteSpec(cfg SqliteConfig) *Spec {
	return &Spec{
		Name:        "sqlite",
		Description: "synthetic sqlite3 VDBE interpreter (hotspot study, §5.1)",
		Entry:       "runQueries",
		Build: func(mod *ir.Module) error {
			_, err := BuildSqliteSim(mod, cfg)
			return err
		},
		Seed: func(m *vm.Machine) error { return SeedSqlite(m, cfg) },
		Args: func(m *vm.Machine) ([]uint64, error) {
			prog, err := m.GlobalAddr("bytecode")
			if err != nil {
				return nil, err
			}
			return []uint64{prog, uint64(cfg.Queries)}, nil
		},
	}
}

// MatmulSpec wires the paper's tiled SGEMM kernel (§5.2).
func MatmulSpec(n, tile int) (*Spec, error) {
	if err := checkMatmulSize(n, tile); err != nil {
		return nil, err
	}
	return &Spec{
		Name:        "matmul",
		Description: fmt.Sprintf("cache-blocked %d×%d SGEMM, tile %d (roofline kernel, §5.2)", n, n, tile),
		Entry:       "matmul",
		Build: func(mod *ir.Module) error {
			_, err := BuildMatmul(mod, n, tile)
			return err
		},
		Seed: func(m *vm.Machine) error { return SeedMatmul(m, n) },
		Args: func(m *vm.Machine) ([]uint64, error) {
			addrs, err := globalAddrs(m, "A", "B", "C")
			if err != nil {
				return nil, err
			}
			return append(addrs, uint64(n)), nil
		},
	}, nil
}

// globalAddrs resolves several globals at once.
func globalAddrs(m *vm.Machine, names ...string) ([]uint64, error) {
	out := make([]uint64, 0, len(names))
	for _, name := range names {
		a, err := m.GlobalAddr(name)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
