package ir

import (
	"strings"
	"testing"
)

// buildSumFunc constructs: func sum(a ptr, n i64) -> f32 that adds up
// n f32 elements — a canonical single-block-loop function used by many
// tests here and in the passes package.
func buildSumFunc(m *Module) *Func {
	f := m.NewFunc("sum", F32, NewParam("a", Ptr), NewParam("n", I64))
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(loop)

	b.SetBlock(loop)
	i := b.Phi(I64)
	i.SetName("i")
	acc := b.Phi(F32)
	acc.SetName("acc")
	p := b.GEP(f.Params[0], i, 4)
	v := b.Load(F32, p)
	sum := b.FAdd(acc, v)
	inext := b.Add(i, ConstInt(I64, 1))
	cond := b.ICmp(PredLT, inext, f.Params[1])
	b.CondBr(cond, loop, exit)

	AddIncoming(i, ConstInt(I64, 0), entry)
	AddIncoming(i, inext, loop)
	AddIncoming(acc, ConstFloat(F32, 0), entry)
	AddIncoming(acc, sum, loop)

	b.SetBlock(exit)
	b.Ret(sum)
	return f
}

func TestTypeProperties(t *testing.T) {
	if I64.Size() != 8 || F32.Size() != 4 || I1.Size() != 1 || Void.Size() != 0 {
		t.Error("scalar sizes wrong")
	}
	v := VecOf(F32, 8)
	if !v.IsVector() || v.Size() != 32 || v.Elem() != F32 {
		t.Error("vector properties wrong")
	}
	if v.String() != "f32x8" {
		t.Errorf("vector name = %q", v.String())
	}
	if !I32.IsInteger() || I32.IsFloat() || !F64.IsFloat() || !Ptr.IsPtr() {
		t.Error("type predicates wrong")
	}
}

func TestTypeByNameRoundTrip(t *testing.T) {
	for _, ty := range []Type{Void, I1, I8, I16, I32, I64, F32, F64, Ptr,
		VecOf(F32, 8), VecOf(I32, 4), VecOf(F64, 2)} {
		got, ok := TypeByName(ty.String())
		if !ok || got != ty {
			t.Errorf("TypeByName(%q) = %v, %v", ty.String(), got, ok)
		}
	}
	if _, ok := TypeByName("i65"); ok {
		t.Error("bogus type accepted")
	}
	if _, ok := TypeByName("ptrx4"); ok {
		t.Error("vector of pointers accepted")
	}
}

func TestBuilderProducesVerifiableIR(t *testing.T) {
	m := NewModule("test")
	buildSumFunc(m)
	if err := Verify(m); err != nil {
		t.Fatalf("built IR fails verification: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	b.NewBlock("entry")
	b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	if err := Verify(m); err == nil {
		t.Error("unterminated block passed verification")
	}
}

func TestVerifyCatchesPhiPredMismatch(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	next := f.NewBlock("next")
	other := f.NewBlock("other")
	b.Br(next)
	b.SetBlock(next)
	ph := b.Phi(I64)
	AddIncoming(ph, ConstInt(I64, 0), other) // wrong: other is not a pred
	b.RetVoid()
	b.SetBlock(other)
	b.RetVoid()
	_ = entry
	if err := Verify(m); err == nil {
		t.Error("phi with non-predecessor incoming passed verification")
	}
}

func TestVerifyCatchesDominanceViolation(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("f", I64, NewParam("c", I1))
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	b.CondBr(f.Params[0], left, right)
	b.SetBlock(left)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	b.Br(join)
	b.SetBlock(right)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(x) // x does not dominate join
	_ = entry
	if err := Verify(m); err == nil {
		t.Error("dominance violation passed verification")
	}
}

func TestVerifyCatchesTypeMismatchedCall(t *testing.T) {
	m := NewModule("test")
	g := m.NewFunc("g", I64, NewParam("x", I64))
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	b.NewBlock("entry")
	// Wrong arg type: f32 into i64 param. The builder allows it (it
	// does not check call signatures); the verifier must catch it.
	b.Call(g, ConstFloat(F32, 1))
	b.RetVoid()
	if err := Verify(m); err == nil {
		t.Error("ill-typed call passed verification")
	}
}

func TestVerifyAcceptsSwitch(t *testing.T) {
	m := NewModule("test")
	f := m.NewFunc("f", Void, NewParam("x", I64))
	b := NewBuilder(f)
	b.NewBlock("entry")
	c0 := f.NewBlock("c0")
	c1 := f.NewBlock("c1")
	dflt := f.NewBlock("dflt")
	b.Switch(f.Params[0], dflt, []int64{0, 1}, []*Block{c0, c1})
	for _, blk := range []*Block{c0, c1, dflt} {
		b.SetBlock(blk)
		b.RetVoid()
	}
	if err := Verify(m); err != nil {
		t.Errorf("switch function rejected: %v", err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := NewModule("kernels")
	m.NewGlobal("A", F32, 1024)
	buildSumFunc(m)

	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse of printed module failed: %v\n%s", err, text)
	}
	if err := Verify(m2); err != nil {
		t.Fatalf("re-parsed module fails verification: %v", err)
	}
	// Printing again must be stable (idempotent round trip).
	text2 := Print(m2)
	if text != text2 {
		t.Errorf("print→parse→print not stable:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestParseRichProgram(t *testing.T) {
	src := `
module "rich"

global @buf f64[256]

func @helper(%x: i64) -> i64 {
entry:
  %y = mul i64 %x, 3
  ret i64 %y
}

func @main(%n: i64) -> f64 !file "rich.c" !line 42 !hint "trip_multiple.loop" 8 {
entry:
  %h = call i64 @helper(i64 %n)
  %f = sitofp i64 %h to f64
  %v = splat f64x4 %f
  %r = reduce f64 %v
  %s = extract f64 %v, 2
  %c = fcmp gt f64 %r, %s
  %sel = select %c, f64 %r, %s
  %p = alloca 8, 4
  store f64 %sel, %p
  %back = load f64 %p
  switch i64 %n, done [1: one]
one:
  br done
done:
  %out = phi f64 [%back, entry], [0.0, one]
  ret f64 %out
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	f := m.FuncByName("main")
	if f.SourceFile != "rich.c" || f.SourceLine != 42 {
		t.Errorf("metadata lost: file=%q line=%d", f.SourceFile, f.SourceLine)
	}
	if v, ok := f.Hint("trip_multiple.loop"); !ok || v != 8 {
		t.Errorf("hint lost: %d %v", v, ok)
	}
	// Round trip the rich program too.
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Error("rich program round trip unstable")
	}
}

func TestParseForwardFunctionReference(t *testing.T) {
	src := `
module "fwd"

func @a() -> void {
entry:
  call @b()
  ret
}

func @b() -> void {
entry:
  ret
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("forward call reference failed: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no module", `func @f() -> void {` + "\n" + `entry:` + "\n" + `  ret` + "\n" + `}`},
		{"undefined value", "module \"m\"\nfunc @f() -> void {\nentry:\n  %x = add i64 %nope, 1\n  ret\n}"},
		{"unknown block", "module \"m\"\nfunc @f() -> void {\nentry:\n  br nowhere\n}"},
		{"unknown callee", "module \"m\"\nfunc @f() -> void {\nentry:\n  call @ghost()\n  ret\n}"},
		{"redefinition", "module \"m\"\nfunc @f() -> void {\nentry:\n  %x = add i64 1, 1\n  %x = add i64 2, 2\n  ret\n}"},
		{"type mismatch", "module \"m\"\nfunc @f(%p: ptr) -> void {\nentry:\n  %x = add i64 %p, 1\n  ret\n}"},
		{"unterminated string", "module \"m"},
		{"bad string escape", "module \"m\\q\""},
		{"loop out of order", "module \"m\"\nloop 2 \"f\" \"loop\" \"f.c\" 1"},
		{"loop missing line", "module \"m\"\nloop 1 \"f\" \"loop\" \"f.c\""},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: parse accepted invalid input", c.name)
		}
	}
}

func TestDomTree(t *testing.T) {
	m := NewModule("dom")
	f := m.NewFunc("f", Void, NewParam("c", I1))
	b := NewBuilder(f)
	entry := b.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	b.CondBr(f.Params[0], left, right)
	b.SetBlock(left)
	b.Br(join)
	b.SetBlock(right)
	b.Br(join)
	b.SetBlock(join)
	b.RetVoid()

	dom := NewDomTree(f)
	if dom.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dom.IDom(join).BName)
	}
	if !dom.Dominates(entry, join) || !dom.Dominates(entry, left) {
		t.Error("entry must dominate everything")
	}
	if dom.Dominates(left, join) || dom.Dominates(right, join) {
		t.Error("branch arms must not dominate the join")
	}
	if !dom.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
}

func TestDomTreeLoop(t *testing.T) {
	m := NewModule("dom")
	buildSumFunc(m)
	f := m.FuncByName("sum")
	dom := NewDomTree(f)
	entry := f.BlockByName("entry")
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")
	if dom.IDom(loop) != entry || dom.IDom(exit) != loop {
		t.Error("loop dominator structure wrong")
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	m := NewModule("rpo")
	buildSumFunc(m)
	f := m.FuncByName("sum")
	rpo := ReversePostorder(f)
	if len(rpo) != 3 || rpo[0] != f.Entry() {
		t.Errorf("RPO wrong: %d blocks, first %v", len(rpo), rpo[0].BName)
	}
}

func TestPredsComputation(t *testing.T) {
	m := NewModule("preds")
	buildSumFunc(m)
	f := m.FuncByName("sum")
	preds := Preds(f)
	loop := f.BlockByName("loop")
	if len(preds[loop]) != 2 {
		t.Errorf("loop should have 2 preds, got %d", len(preds[loop]))
	}
	if len(preds[f.Entry()]) != 0 {
		t.Error("entry should have no preds")
	}
}

func TestBlockHelpers(t *testing.T) {
	m := NewModule("helpers")
	buildSumFunc(m)
	f := m.FuncByName("sum")
	loop := f.BlockByName("loop")
	if len(loop.Phis()) != 2 {
		t.Errorf("loop has %d phis, want 2", len(loop.Phis()))
	}
	if loop.Term() == nil || loop.Term().Op != OpCondBr {
		t.Error("loop terminator wrong")
	}
	if len(loop.Succs()) != 2 {
		t.Error("loop successors wrong")
	}
}

func TestGlobalLookupAndSize(t *testing.T) {
	m := NewModule("g")
	g := m.NewGlobal("A", F32, 100)
	if m.GlobalByName("A") != g || m.GlobalByName("B") != nil {
		t.Error("global lookup broken")
	}
	if g.SizeBytes() != 400 {
		t.Errorf("global size = %d, want 400", g.SizeBytes())
	}
	if g.String() != "@A" || g.Type() != Ptr {
		t.Error("global identity wrong")
	}
}

func TestLoopMetaRegistry(t *testing.T) {
	m := NewModule("meta")
	id := m.AddLoopMeta(LoopMeta{File: "a.c", Line: 10, FuncName: "f", Header: "loop"})
	if id != 1 {
		t.Errorf("first loop ID = %d, want 1", id)
	}
	meta, ok := m.LoopMetaByID(id)
	if !ok || meta.File != "a.c" || meta.ID != 1 {
		t.Errorf("loop meta lookup = %+v, %v", meta, ok)
	}
	if _, ok := m.LoopMetaByID(99); ok {
		t.Error("bogus loop ID resolved")
	}
}

func TestConstRendering(t *testing.T) {
	if ConstInt(I64, -5).String() != "-5" {
		t.Error("int const rendering")
	}
	if ConstFloat(F32, 1).String() != "1.0" {
		t.Error("whole float must render with .0 for parse round trip")
	}
	if !strings.Contains(ConstFloat(F64, 0.5).String(), "0.5") {
		t.Error("fractional float rendering")
	}
}

func TestEnsureNamesAssignsMissing(t *testing.T) {
	m := NewModule("names")
	f := m.NewFunc("f", Void)
	blk := f.NewBlock("entry")
	// Hand-built instruction without a name.
	add := &Instr{Op: OpAdd, Ty: I64, Args: []Value{ConstInt(I64, 1), ConstInt(I64, 2)}, block: blk}
	ret := &Instr{Op: OpRet, Ty: Void, block: blk}
	blk.Instrs = append(blk.Instrs, add, ret)
	text := PrintFunc(f)
	if !strings.Contains(text, "= add i64 1, 2") {
		t.Errorf("printer lost the instruction:\n%s", text)
	}
	if add.Name() == "" {
		t.Error("printer must assign names to anonymous values")
	}
}
