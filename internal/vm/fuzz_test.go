package vm

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
)

// FuzzFlatLeafWord drives the flat page-table leaf encoder/decoder with
// arbitrary frame/size inputs: valid inputs must round-trip exactly with the
// documented bit layout, invalid ones (misaligned frame, out-of-range size)
// must be rejected loudly rather than silently encoding a corrupt word.
func FuzzFlatLeafWord(f *testing.F) {
	seed := func(frame uint64, size, align uint8) []byte {
		b := make([]byte, 10)
		binary.LittleEndian.PutUint64(b, frame)
		b[8], b[9] = size, align
		return b
	}
	f.Add(seed(0x1000, 0, 1))
	f.Add(seed(0x200000, 1, 1))
	f.Add(seed(0x40000000, 2, 1))
	f.Add(seed(0x1234, 0, 0))   // misaligned 4KB frame
	f.Add(seed(0x1000, 3, 1))   // size out of range
	f.Add(seed(0x201000, 1, 0)) // 4KB-aligned but not 2MB-aligned

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		frame := mem.Addr(binary.LittleEndian.Uint64(data) & (1<<46 - 1))
		size := mem.PageSize(data[8] & 3)
		if data[9]&1 != 0 {
			// Force validity: align the frame and clamp the size.
			if size >= mem.NumPageSizes {
				size = mem.Page4K
			}
			frame = mem.PageBase(frame, size)
		}
		valid := size < mem.NumPageSizes && frame&(size.Bytes()-1) == 0

		defer func() {
			if r := recover(); r != nil && valid {
				t.Fatalf("encode(%#x, %v) panicked on valid input: %v", frame, size, r)
			}
		}()
		w := encodeLeafWord(frame, size)
		if !valid {
			t.Fatalf("encode(%#x, %v) accepted invalid input: %#x", frame, size, w)
		}
		if w&flatPresent == 0 || w&flatLeaf == 0 {
			t.Fatalf("encoded word %#x missing present/leaf bits", w)
		}
		pte := decodeLeafWord(w)
		if pte.Frame != frame || pte.Size != size || !pte.Valid {
			t.Fatalf("round trip lost data: in (%#x, %v), out %+v", frame, size, pte)
		}
	})
}

// FuzzFlatTableOps interprets fuzz bytes as a mapping script and applies it to
// the flat page table and the radix reference in lockstep: identical frames
// in, identical walks out. This is the randomized radix-vs-flat differential
// in fuzzable form — new table-corruption bugs become crashes or divergences.
func FuzzFlatTableOps(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add([]byte("\x00\x00\x00\x10\x20\x30\x40\x50\x61\x72\x83\x94\xa5\xb6"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x80, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47})

	f.Fuzz(func(t *testing.T, data []byte) {
		flat, radix, fa, ra := mkPageTables(5)

		has4K := map[mem.Addr]bool{}
		var mapped []mem.Addr
		for i := 0; i+4 <= len(data) && i < 400; i += 4 {
			bits := binary.LittleEndian.Uint32(data[i:])
			size := mem.Page4K
			if bits&1 != 0 {
				size = mem.Page2M
			}
			v := mem.PageBase(mem.Addr(bits>>1)<<mem.PageBits4K, size)
			if size == mem.Page2M && has4K[v>>mem.PageBits2M] {
				continue
			}
			if _, ok := flat.Lookup(v); ok {
				continue
			}
			var frame mem.Addr
			if size == mem.Page2M {
				frame = fa.Alloc2M()
				ra.Alloc2M()
			} else {
				frame = fa.Alloc4K()
				ra.Alloc4K()
				has4K[v>>mem.PageBits2M] = true
			}
			flat.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			radix.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			mapped = append(mapped, v)
		}
		for _, v := range mapped {
			for _, probe := range []mem.Addr{v, v + 0x333, v + mem.PageSize4K} {
				fw, fok := flat.Walk(probe)
				rw, rok := radix.Walk(probe)
				if fok != rok || fw != rw {
					t.Fatalf("walk diverged at %#x: %v %+v vs %v %+v", probe, fok, fw, rok, rw)
				}
			}
		}
		if flat.Pages() != radix.pages {
			t.Fatalf("page counts diverged: %d vs %d", flat.Pages(), radix.pages)
		}
	})
}
