package vm

import (
	"encoding/binary"
	"fmt"

	"mperf/internal/ir"
)

// This file implements program artifact serialization: the stable
// parts of a compiled Program — the frozen module, as the printed IR
// text that cmd/mpc reads too, and the baked Seed data image —
// flattened into bytes and back. Exec funcs, charge templates and
// loop kernels are plan products and do not travel; DecodeArtifact
// parses the module and re-plans them, which is cheap next to a cold
// pipeline compile (no workload build, no vectorizer pipeline, no Seed
// execution, and — because callers guard artifacts with an integrity
// checksum and the encoder only ever sees verified modules — no
// re-verification).
//
// The payload is versioned independently of the codegen scheme: the
// codegen tag lives in the caller's cache key (a plan change makes old
// artifacts unreachable), while ArtifactVersion guards the byte layout
// itself. Decoding rejects any version mismatch with an error, which
// artifact stores translate into a silent recompile.

// ArtifactVersion identifies the artifact payload layout. Bump on any
// change to EncodeArtifact's byte format. Version 4 carries the module
// as ir.Print text; version 3 carried a binary module encoding.
const ArtifactVersion = 4

// EncodeArtifact serializes the program's stable parts: the module's
// IR text and the data image when one was baked.
func EncodeArtifact(p *Program) ([]byte, error) {
	if p == nil || p.mod == nil {
		return nil, fmt.Errorf("vm: cannot encode a nil program")
	}
	text := ir.Print(p.mod)
	out := make([]byte, 0, len(text)+len(p.image)+64)
	out = append(out, ArtifactVersion)
	out = binary.AppendUvarint(out, uint64(len(text)))
	out = append(out, text...)
	out = binary.AppendUvarint(out, uint64(len(p.image)))
	out = append(out, p.image...)
	return out, nil
}

// DecodeArtifact reconstructs a Program from EncodeArtifact bytes:
// the module text is parsed and re-planned (exec funcs, block charge
// templates and loop kernels are re-bound), and the data image is
// reinstalled. The input must be integrity-checked by the caller; any
// structural mismatch is returned as an error, never a panic.
func DecodeArtifact(data []byte) (*Program, error) {
	pos := 0
	u8 := func(what string) (byte, error) {
		if pos >= len(data) {
			return 0, fmt.Errorf("vm: artifact truncated reading %s", what)
		}
		b := data[pos]
		pos++
		return b, nil
	}
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("vm: artifact truncated reading %s", what)
		}
		pos += n
		return v, nil
	}
	take := func(n uint64, what string) ([]byte, error) {
		if n > uint64(len(data)-pos) {
			return nil, fmt.Errorf("vm: artifact %s of %d bytes overruns input", what, n)
		}
		b := data[pos : pos+int(n)]
		pos += int(n)
		return b, nil
	}

	ver, err := u8("version")
	if err != nil {
		return nil, err
	}
	if ver != ArtifactVersion {
		return nil, fmt.Errorf("vm: artifact version %d, want %d", ver, ArtifactVersion)
	}

	textLen, err := uvarint("module length")
	if err != nil {
		return nil, err
	}
	text, err := take(textLen, "module")
	if err != nil {
		return nil, err
	}
	imgLen, err := uvarint("image length")
	if err != nil {
		return nil, err
	}
	img, err := take(imgLen, "data image")
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("vm: artifact has %d trailing bytes", len(data)-pos)
	}

	mod, err := ir.Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("vm: artifact module: %w", err)
	}
	// Re-plan without re-verifying: the encoder only sees modules that
	// already passed ir.Verify, and the caller checksummed the bytes.
	p, err := compileModule(mod, false)
	if err != nil {
		return nil, fmt.Errorf("vm: re-planning artifact: %w", err)
	}
	if len(img) > 0 {
		if len(img) != p.DataSize() {
			return nil, fmt.Errorf("vm: artifact image is %d bytes, program data region is %d",
				len(img), p.DataSize())
		}
		p.image = append([]byte(nil), img...)
	}
	return p, nil
}
