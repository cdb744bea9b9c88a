package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// sliceReader replays a fixed access list.
type sliceReader struct {
	accs []trace.Access
	i    int
}

func (s *sliceReader) Next(a *trace.Access) bool {
	if s.i >= len(s.accs) {
		return false
	}
	*a = s.accs[s.i]
	s.i++
	return true
}

// fixedMem returns a constant latency for loads.
type fixedMem struct {
	latency  mem.Cycle
	accesses int
}

func (m *fixedMem) Access(_, _ mem.Addr, _ bool, at mem.Cycle) mem.Cycle {
	m.accesses++
	return at + m.latency
}

func loadsWithGap(n, gap int) []trace.Access {
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = trace.Access{PC: 0x400000, VAddr: mem.Addr(i) << 12, Gap: gap}
	}
	return out
}

func TestAllNonBlockingRetiresAtWidth(t *testing.T) {
	// Zero-latency memory: IPC should approach the width.
	ms := &fixedMem{latency: 0}
	c := New(Config{Width: 4, ROBSize: 64}, ms)
	n := c.Run(&sliceReader{accs: loadsWithGap(1000, 3)}, 1<<30)
	if n != 4000 {
		t.Fatalf("retired %d, want 4000", n)
	}
	if ipc := c.IPC(); ipc < 3.0 {
		t.Errorf("IPC = %v with zero-latency memory, want near 4", ipc)
	}
}

func TestLongLatencyLimitsIPC(t *testing.T) {
	fast := New(DefaultConfig(), &fixedMem{latency: 1})
	slow := New(DefaultConfig(), &fixedMem{latency: 400})
	fast.Run(&sliceReader{accs: loadsWithGap(2000, 2)}, 1<<30)
	slow.Run(&sliceReader{accs: loadsWithGap(2000, 2)}, 1<<30)
	if slow.IPC() >= fast.IPC() {
		t.Errorf("slow memory IPC %v not below fast %v", slow.IPC(), fast.IPC())
	}
}

func TestROBBoundsMLP(t *testing.T) {
	// With latency L and a tiny ROB, at most ROBSize loads overlap, so
	// cycles ≳ n/ROB × L. A big ROB overlaps many more.
	mkRun := func(rob int) mem.Cycle {
		c := New(Config{Width: 4, ROBSize: rob}, &fixedMem{latency: 500})
		c.Run(&sliceReader{accs: loadsWithGap(512, 0)}, 1<<30)
		return c.Cycle
	}
	small := mkRun(4)
	big := mkRun(512)
	if big >= small {
		t.Errorf("larger ROB not faster: rob4=%d cycles, rob512=%d", small, big)
	}
	if small < 500*512/4 {
		t.Errorf("tiny ROB overlapped more than its size: %d cycles", small)
	}
}

func TestStoresDrainThroughStoreBuffer(t *testing.T) {
	mkAccs := func() []trace.Access {
		accs := make([]trace.Access, 500)
		for i := range accs {
			accs[i] = trace.Access{PC: 1, VAddr: mem.Addr(i) << 12, Write: true, Gap: 1}
		}
		return accs
	}
	// Stores retire through the store buffer: much faster than if each store
	// blocked like a load, but throttled to the buffer's drain rate.
	ms := &fixedMem{latency: 400}
	c := New(DefaultConfig(), ms)
	c.Run(&sliceReader{accs: mkAccs()}, 1<<30)
	blockingIPC := 2.0 / 400 // if every store blocked for full latency
	if ipc := c.IPC(); ipc < 10*blockingIPC {
		t.Errorf("store-only stream IPC = %v, want well above blocking rate %v", ipc, blockingIPC)
	}
	if ms.accesses != 500 {
		t.Errorf("stores still must access memory: %d", ms.accesses)
	}
	if c.Stores != 500 || c.Loads != 0 {
		t.Errorf("load/store accounting: %d/%d", c.Loads, c.Stores)
	}

	// A larger store buffer drains faster under the same latency.
	small := New(Config{Width: 4, ROBSize: 352, StoreBuf: 4}, &fixedMem{latency: 400})
	small.Run(&sliceReader{accs: mkAccs()}, 1<<30)
	if small.IPC() >= c.IPC() {
		t.Errorf("4-entry store buffer (%v IPC) not slower than 64-entry (%v)", small.IPC(), c.IPC())
	}
}

func TestInstructionBudgetRespected(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{latency: 10})
	n := c.Run(&sliceReader{accs: loadsWithGap(10000, 4)}, 1234)
	if n != 1234 {
		t.Errorf("retired %d, want exactly 1234", n)
	}
}

func TestRunResumable(t *testing.T) {
	// Warm-up then measurement over the same reader must continue, not
	// restart.
	r := &sliceReader{accs: loadsWithGap(1000, 0)}
	c := New(DefaultConfig(), &fixedMem{latency: 5})
	first := c.Run(r, 300)
	second := c.Run(r, 300)
	if first != 300 || second != 300 {
		t.Errorf("runs retired %d, %d; want 300 each", first, second)
	}
	if c.Instructions != 600 {
		t.Errorf("total instructions = %d", c.Instructions)
	}
}

func TestTraceDrain(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{latency: 50})
	n := c.Run(&sliceReader{accs: loadsWithGap(10, 0)}, 1<<30)
	if n != 10 {
		t.Errorf("drained %d instructions, want 10", n)
	}
}

func TestGapCountsAsInstructions(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{latency: 0})
	n := c.Run(&sliceReader{accs: loadsWithGap(100, 9)}, 1<<30)
	if n != 1000 {
		t.Errorf("retired %d, want 1000 (gap 9 + 1 mem per record)", n)
	}
	if c.Loads != 100 {
		t.Errorf("loads = %d, want 100", c.Loads)
	}
}

// fetchMem implements InstrFetcher with a constant instruction-miss latency
// for new blocks.
type fetchMem struct {
	fixedMem
	ifetchLatency mem.Cycle
	fetches       int
}

func (m *fetchMem) FetchInstr(pc mem.Addr, at mem.Cycle) mem.Cycle {
	m.fetches++
	return at + m.ifetchLatency
}

func TestFrontEndStallsOnInstructionMisses(t *testing.T) {
	// Accesses spread across many instruction blocks with a slow front end
	// must run slower than the same stream with an ideal front end.
	mkAccs := func() []trace.Access {
		accs := make([]trace.Access, 400)
		for i := range accs {
			accs[i] = trace.Access{
				PC:    mem.Addr(i) * mem.BlockSize, // new instruction block each time
				VAddr: mem.Addr(i) << 12,
				Gap:   2,
			}
		}
		return accs
	}
	slow := &fetchMem{fixedMem: fixedMem{latency: 5}, ifetchLatency: 100}
	cSlow := New(DefaultConfig(), slow)
	cSlow.Run(&sliceReader{accs: mkAccs()}, 1<<30)

	ideal := &fixedMem{latency: 5}
	cIdeal := New(DefaultConfig(), ideal)
	cIdeal.Run(&sliceReader{accs: mkAccs()}, 1<<30)

	if cSlow.IPC() >= cIdeal.IPC() {
		t.Errorf("slow front end IPC %.3f not below ideal %.3f", cSlow.IPC(), cIdeal.IPC())
	}
	if slow.fetches < 399 {
		t.Errorf("instruction fetches = %d, want ≈400", slow.fetches)
	}
}

func TestFrontEndHitsAreFree(t *testing.T) {
	// A tight loop (single instruction block) fetches once and never stalls.
	accs := make([]trace.Access, 400)
	for i := range accs {
		accs[i] = trace.Access{PC: 0x400000, VAddr: mem.Addr(i) << 12, Gap: 2}
	}
	fm := &fetchMem{fixedMem: fixedMem{latency: 5}, ifetchLatency: 100}
	c := New(DefaultConfig(), fm)
	c.Run(&sliceReader{accs: accs}, 1<<30)
	if fm.fetches != 1 {
		t.Errorf("loop fetched %d instruction blocks, want 1", fm.fetches)
	}
	if ipc := c.IPC(); ipc < 2 {
		t.Errorf("loop IPC = %.3f, want near width", ipc)
	}
}

func TestChunkedRunMatchesMonolithic(t *testing.T) {
	// Splitting a run into arbitrary RunUntil slices must not change the
	// execution: the pending trace access and the current cycle's retire
	// budget survive call boundaries in the core instead of being dropped.
	// Instruction chunks deliberately misalign with the gap structure so
	// boundaries land mid-record; cycle windows (the multi-core driver's
	// shared epochs) additionally cut the run mid-stall.
	mkAccs := func() []trace.Access {
		accs := make([]trace.Access, 3000)
		for i := range accs {
			accs[i] = trace.Access{
				PC:    mem.Addr(i%17) * mem.BlockSize,
				VAddr: mem.Addr(i*67) << 8,
				Write: i%5 == 0,
				Gap:   i % 4,
			}
		}
		return accs
	}

	mono := New(DefaultConfig(), &fixedMem{latency: 37})
	monoTotal := mono.Run(&sliceReader{accs: mkAccs()}, 1<<30)

	for _, sl := range []struct {
		instr  uint64
		cycles mem.Cycle // slice window; 0 = instruction-bounded only
	}{
		{1, 0}, {7, 0}, {97, 0}, {1001, 0},
		{3, 1}, {1001, 1}, {7, 37}, {1001, 37},
		{97, 2000}, {1 << 30, 2000}, {1, 5003}, {1001, 5003},
	} {
		ms := &fixedMem{latency: 37}
		c := New(DefaultConfig(), ms)
		r := &sliceReader{accs: mkAccs()}
		var total uint64
		for {
			until := mem.Cycle(1 << 62)
			if sl.cycles > 0 {
				until = c.Cycle + sl.cycles
			}
			got := c.RunUntil(r, sl.instr, until)
			total += got
			if got < sl.instr && c.Cycle < until {
				break // trace drained
			}
		}
		if total != monoTotal || c.Instructions != mono.Instructions {
			t.Errorf("slice %+v: retired %d, monolithic retired %d", sl, total, monoTotal)
		}
		if c.Cycle != mono.Cycle || c.Loads != mono.Loads || c.Stores != mono.Stores {
			t.Errorf("slice %+v: cycle/loads/stores = %d/%d/%d, want %d/%d/%d",
				sl, c.Cycle, c.Loads, c.Stores, mono.Cycle, mono.Loads, mono.Stores)
		}
		if c.StallLoad != mono.StallLoad || c.StallStore != mono.StallStore || c.StallOther != mono.StallOther {
			t.Errorf("slice %+v: stalls load/store/other = %d/%d/%d, want %d/%d/%d", sl,
				c.StallLoad, c.StallStore, c.StallOther, mono.StallLoad, mono.StallStore, mono.StallOther)
		}
	}
}

func TestChunkBoundaryKeepsRetireWidth(t *testing.T) {
	// A width-bound stream (zero-latency memory) exposes the per-cycle retire
	// budget: a chunk boundary landing mid-retire-burst must not grant the
	// resuming call a fresh Width in the same cycle.
	mkAccs := func() []trace.Access { return loadsWithGap(500, 3) }

	mono := New(Config{Width: 4, ROBSize: 64}, &fixedMem{latency: 0})
	mono.Run(&sliceReader{accs: mkAccs()}, 1<<30)

	for _, chunk := range []uint64{1, 3, 5} {
		c := New(Config{Width: 4, ROBSize: 64}, &fixedMem{latency: 0})
		r := &sliceReader{accs: mkAccs()}
		for {
			if got := c.Run(r, chunk); got < chunk {
				break
			}
		}
		if c.Cycle != mono.Cycle || c.Instructions != mono.Instructions {
			t.Errorf("chunk %d: cycles/instructions = %d/%d, want %d/%d",
				chunk, c.Cycle, c.Instructions, mono.Cycle, mono.Instructions)
		}
	}
}

func TestROBOccupancyGauge(t *testing.T) {
	c := New(Config{Width: 4, ROBSize: 32}, &fixedMem{latency: 1 << 40})
	c.Run(&sliceReader{accs: loadsWithGap(8, 0)}, 4)
	if got := c.ROBOccupancy(); got == 0 || got > 32 {
		t.Errorf("ROBOccupancy = %d, want within (0,32] while loads are outstanding", got)
	}
}

func TestRunUntilCycleBound(t *testing.T) {
	c := New(DefaultConfig(), &fixedMem{latency: 10})
	r := &sliceReader{accs: loadsWithGap(100000, 2)}
	n := c.RunUntil(r, 1<<60, 1000)
	if c.Cycle < 1000 {
		t.Errorf("stopped at cycle %d before the bound", c.Cycle)
	}
	if c.Cycle > 1100 {
		t.Errorf("overran the cycle bound: %d", c.Cycle)
	}
	if n == 0 {
		t.Error("retired nothing within the window")
	}
	// Resuming honours a later bound.
	c.RunUntil(r, 1<<60, 3000)
	if c.Cycle < 3000 || c.Cycle > 3100 {
		t.Errorf("second window ended at %d", c.Cycle)
	}
}
