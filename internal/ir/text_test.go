package ir_test

import (
	"reflect"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/platform"
	"mperf/internal/workloads"
)

// codecSource exercises every opcode family the text format must carry
// for program artifacts: integer and FP arithmetic, comparisons, fma,
// conversions, vector construction, memory with displacements, gep,
// phi, select, call (including a forward reference),
// ret/br/condbr/switch, function metadata and hints.
const codecSource = `module "codec"

global @g f32[64]
global @h i64[8]

func @main(%n: i64) -> f32 !file "main.c" !line 3 !hint "trip_multiple.loop" 4 {
entry:
  %p = alloca 8, 4
  %m = call i64 @leaf(i64 %n)
  store i64 %m, %p
  br loop
loop:
  %i = phi i64 [0, entry], [%i2, loop]
  %addr = gep @g, i64 %i, 4
  %v = load f32 %addr, 8
  %vv = splat f32x4 %v
  %e = extract f32 %vv, 2
  %red = reduce f32 %vv
  %d = fma f32 %red, %e, 2.5
  store f32 %d, %addr, 4
  %i2 = add i64 %i, 1
  %c2 = icmp lt i64 %i2, %n
  condbr %c2, loop, exit
exit:
  %zf = sitofp i64 %m to f32
  %cf = fcmp gt f32 %zf, 0.5
  %s = select %cf, f32 %zf, 1.0
  ret f32 %s
}

func @leaf(%x: i64) -> i64 {
entry:
  %a = mul i64 %x, 3
  %b = srem i64 %a, 7
  %sh = shl i64 %b, 2
  %t = trunc i64 %sh to i32
  %w = zext i32 %t to i64
  switch i64 %w, dflt [1: one, 2: two]
one:
  ret i64 1
two:
  %f = fdiv f64 2.0, 4.0
  %fi = fptosi f64 %f to i64
  ret i64 %fi
dflt:
  ret i64 %w
}
`

// codecModule parses codecSource and registers two loops, as the
// instrumentation pass would.
func codecModule(t testing.TB) *ir.Module {
	t.Helper()
	m, err := ir.Parse(codecSource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m.AddLoopMeta(ir.LoopMeta{File: "main.c", Line: 4, FuncName: "main", Header: "loop"})
	m.AddLoopMeta(ir.LoopMeta{File: "leaf.c", Line: 9, FuncName: "leaf", Header: "entry"})
	return m
}

// reparse parses text, failing the test on error.
func reparse(t *testing.T, text string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("parse of printed module: %v\n%s", err, text)
	}
	return m
}

// TestTextRoundTrip pins that Print→Parse preserves the whole module,
// loop metadata included: the parsed module verifies, prints
// byte-identically, and keeps function metadata and hints.
func TestTextRoundTrip(t *testing.T) {
	m := codecModule(t)
	text := ir.Print(m)
	got := reparse(t, text)
	if err := ir.Verify(got); err != nil {
		t.Fatalf("parsed module does not verify: %v", err)
	}
	if have := ir.Print(got); have != text {
		t.Fatalf("parsed module prints differently:\nwant:\n%s\nhave:\n%s", text, have)
	}
	if !reflect.DeepEqual(got.Loops, m.Loops) {
		t.Fatalf("loop metadata %+v, want %+v", got.Loops, m.Loops)
	}
	if lm, ok := got.LoopMetaByID(1); !ok || lm.FuncName != "main" {
		t.Fatalf("LoopMetaByID(1) = %+v, %v", lm, ok)
	}
	if f := got.FuncByName("main"); f == nil || f.SourceFile != "main.c" || f.SourceLine != 3 {
		t.Fatalf("function metadata lost: %+v", f)
	}
	if v, ok := got.FuncByName("main").Hint("trip_multiple.loop"); !ok || v != 4 {
		t.Fatalf("hint lost: %d, %v", v, ok)
	}
}

// TestPrintDeterministic pins that two independent builds of the same
// source print identical bytes (the property content-addressed
// artifacts rely on).
func TestPrintDeterministic(t *testing.T) {
	if a, b := ir.Print(codecModule(t)), ir.Print(codecModule(t)); a != b {
		t.Fatal("printing is not deterministic across module builds")
	}
}

// TestParseRobust pins that no truncation or single-byte corruption of
// a printed module can panic the parser: every mangled input either
// parses (harmless flips in names or constants) or returns an error.
func TestParseRobust(t *testing.T) {
	text := ir.Print(codecModule(t))
	parse := func(s string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panicked on %q: %v", s, r)
			}
		}()
		_, _ = ir.Parse(s)
	}
	for cut := 0; cut < len(text); cut++ {
		parse(text[:cut])
	}
	for i := 0; i < len(text); i++ {
		mangled := []byte(text)
		mangled[i] ^= 0x5a
		parse(string(mangled))
	}
}

// TestParseQuotedStrings pins that strings holding quotes, backslashes
// and control characters survive Print→Parse in every quoted position:
// module name, source file, hint key and loop metadata.
func TestParseQuotedStrings(t *testing.T) {
	const odd = `a "quoted" \path\ with	tab` + "\n"
	m := ir.NewModule(odd)
	f := m.NewFunc("f", ir.Void)
	f.SourceFile, f.SourceLine = odd, 7
	f.SetHint(odd, -3)
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	b.RetVoid()
	m.AddLoopMeta(ir.LoopMeta{File: odd, Line: 1, FuncName: odd, Header: odd})

	text := ir.Print(m)
	got := reparse(t, text)
	if got.MName != odd || got.Funcs[0].SourceFile != odd || !reflect.DeepEqual(got.Loops, m.Loops) {
		t.Fatalf("strings changed in round trip:\n%s", text)
	}
	if v, ok := got.Funcs[0].Hint(odd); !ok || v != -3 {
		t.Fatalf("hint key changed in round trip: %d, %v", v, ok)
	}
	if have := ir.Print(got); have != text {
		t.Fatalf("reprint differs:\nwant:\n%s\nhave:\n%s", text, have)
	}
}

// catalogModules builds every catalog module at one fixed sizing: each
// workload on each platform, raw, optimized and instrumented, with a
// readable name for each, in a stable order.
func catalogModules(t testing.TB) (names []string, mods []*ir.Module) {
	t.Helper()
	params := workloads.Params{Elems: 4096, MemsetWords: 4096, MatmulN: 24, MatmulTile: 8,
		Sqlite: &workloads.SqliteConfig{ProgLen: 24, Rows: 8, Queries: 2, CellArea: 256, TextArea: 256, PatLen: 4}}
	modes := []struct {
		name                 string
		optimize, instrument bool
	}{{"raw", false, false}, {"optimized", true, false}, {"instrumented", true, true}}
	for _, name := range workloads.Names() {
		spec, err := workloads.Lookup(name, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, pn := range platform.Names() {
			plat, err := platform.Lookup(pn)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				prog, err := spec.BuildProgram(plat, mode.optimize, mode.instrument)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, pn, mode.name, err)
				}
				names = append(names, name+"/"+pn+"/"+mode.name)
				mods = append(mods, prog.Module())
			}
		}
	}
	return names, mods
}

// TestCatalogTextRoundTrip pins, for every catalog module, that the
// printed text is a fixpoint of Parse∘Print and that the loop registry
// the roofline correlates against survives it: the artifact store
// carries exactly this text.
func TestCatalogTextRoundTrip(t *testing.T) {
	names, mods := catalogModules(t)
	loops := 0
	for i, m := range mods {
		text := ir.Print(m)
		got := reparse(t, text)
		if ir.Print(got) != text {
			t.Errorf("%s: Print(Parse(Print(m))) differs from Print(m)", names[i])
		}
		if !reflect.DeepEqual(got.Loops, m.Loops) {
			t.Errorf("%s: loops %+v, want %+v", names[i], got.Loops, m.Loops)
		}
		loops += len(m.Loops)
	}
	if loops == 0 {
		t.Fatal("no catalog module registered a loop: the instrumented builds are not covered")
	}
}

// FuzzParse checks that no input panics the parser, and that any
// module it accepts prints to a fixpoint: the printed text parses and
// prints identically.
func FuzzParse(f *testing.F) {
	f.Add(ir.Print(codecModule(f)))
	_, mods := catalogModules(f)
	for _, m := range mods {
		f.Add(ir.Print(m))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		text := ir.Print(m)
		if have := ir.Print(reparse(t, text)); have != text {
			t.Fatalf("print is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, have)
		}
	})
}
