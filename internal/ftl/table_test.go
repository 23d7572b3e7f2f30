package ftl

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ssdkeeper/internal/nand"
)

// seasonedHealthFTL returns a seasoned FTL with health armed.
func seasonedHealthFTL(t testing.TB, cfg nand.Config) *FTL {
	t.Helper()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.SetHealth(nand.NewHealth(cfg, &nand.FaultPlan{Seed: 1}))
	if err := f.Season(0.5, 5, 1); err != nil {
		t.Fatal(err)
	}
	return f
}

// pageModel is the reference the differential test holds the page table to:
// a plain map from logical page to PPN, updated from two independent
// sources — what the public calls return, and the per-block owner records
// (the reverse map), which say where every valid page lives after GC, wear
// leveling, block retirement and die rebuilds moved it.
type pageModel struct {
	ref map[Key]int64
	// seasoned is each cold page's position right after seasoning. A cold
	// page enters the table only once something relocates it; one seen at
	// its seasoned position in a block never erased since has not moved.
	seasoned map[int64]int64
}

func newPageModel(f *FTL) *pageModel {
	m := &pageModel{ref: make(map[Key]int64), seasoned: make(map[int64]int64)}
	m.scan(f, func(o owner, ppn int64, _ *block) {
		if o.tenant == coldTenant {
			m.seasoned[o.lpn] = ppn
		}
	})
	return m
}

// scan visits every valid physical page with its owner and block.
func (m *pageModel) scan(f *FTL, fn func(o owner, ppn int64, b *block)) {
	for planeID := range f.planes {
		m.scanPlane(f, planeID, fn)
	}
}

func (m *pageModel) scanPlane(f *FTL, planeID int, fn func(o owner, ppn int64, b *block)) {
	for id, b := range f.planes[planeID].blocks {
		if b == nil {
			continue
		}
		for page, v := range b.valid {
			if !v {
				continue
			}
			a := f.cfg.PlaneAddr(planeID)
			a.Block, a.Page = id, page
			fn(b.owners[page], f.cfg.PPN(a), b)
		}
	}
}

// sync folds relocations into the reference: a valid page is where its
// owner is mapped, except a cold page still sitting where seasoning put it.
// (A relocated page can land on its seasoned position again, but only after
// that block was erased.)
func (m *pageModel) sync(f *FTL) {
	for planeID := range f.planes {
		m.syncPlane(f, planeID)
	}
}

func (m *pageModel) syncPlane(f *FTL, planeID int) {
	m.scanPlane(f, planeID, func(o owner, ppn int64, b *block) {
		k := Key{Tenant: o.tenant, LPN: o.lpn}
		if o.tenant == coldTenant && b.erases == 0 {
			if _, mapped := m.ref[k]; !mapped && m.seasoned[o.lpn] == ppn {
				return
			}
		}
		m.ref[k] = ppn
	})
}

// check asserts the page table equals the reference on every key the test
// can touch, that Mapped counts it, and that the table walk is ordered.
func (m *pageModel) check(t *testing.T, f *FTL, step int, universe []Key) {
	t.Helper()
	for _, k := range universe {
		want, mapped := m.ref[k]
		a, ok := f.Lookup(k)
		if ok != mapped || (ok && f.cfg.PPN(a) != want) {
			t.Fatalf("step %d: Lookup(%v) = %v,%v; reference %v,%v", step, k, f.cfg.PPN(a), ok, want, mapped)
		}
	}
	for k, want := range m.ref {
		if a, ok := f.Lookup(k); !ok || f.cfg.PPN(a) != want {
			t.Fatalf("step %d: Lookup(%v) = %v,%v; reference %v", step, k, f.cfg.PPN(a), ok, want)
		}
	}
	if got := f.Counters().Mapped; got != len(m.ref) {
		t.Fatalf("step %d: Mapped = %d, reference holds %d", step, got, len(m.ref))
	}
	var prev *Key
	n := 0
	f.eachMapping(func(k Key, ppn int64) {
		if prev != nil && keyOrder(*prev, k) >= 0 {
			t.Fatalf("step %d: table walk visits %v after %v", step, k, *prev)
		}
		prev = &k
		n++
	})
	if n != len(m.ref) {
		t.Fatalf("step %d: table walk visits %d pages, reference holds %d", step, n, len(m.ref))
	}
}

func keyOrder(a, b Key) int {
	if c := cmp.Compare(a.Tenant, b.Tenant); c != 0 {
		return c
	}
	return cmp.Compare(a.LPN, b.LPN)
}

// TestPageTableMatchesMapReference drives a seeded random mix of every call
// that reads or moves mappings on a seasoned, health-armed FTL and checks
// the chunked page table against a plain map after each step.
func TestPageTableMatchesMapReference(t *testing.T) {
	// A quarter of TinyConfig's blocks: narrow channel sets then run out
	// of space, which exercises the failure paths too.
	cfg := nand.TinyConfig()
	cfg.BlocksPerPlane = 16
	f := seasonedHealthFTL(t, cfg)
	rng := rand.New(rand.NewSource(7))
	// Dense tenants and one far above the dense slot range, each over an
	// LPN span straddling a chunk boundary.
	tenants := []int{0, 1, 2, 3, maxDenseTenant + 5}
	const span = 1024
	const base = chunkSize - span/2
	var universe []Key
	for _, tn := range tenants {
		for lpn := int64(base); lpn < base+span; lpn++ {
			universe = append(universe, Key{Tenant: tn, LPN: lpn})
		}
	}
	m := newPageModel(f)
	for lpn := range m.seasoned {
		universe = append(universe, Key{Tenant: coldTenant, LPN: lpn})
	}
	randKey := func() Key {
		return Key{Tenant: tenants[rng.Intn(len(tenants))], LPN: base + rng.Int63n(span)}
	}
	// A call that garbage-collects relocates pages within the plane it
	// wrote to; the reference catches up on that plane at once, since a
	// later failed overwrite in the same step would invalidate a moved
	// page and hide where it went.
	moved := func() uint64 { c := f.Counters(); return c.GCMovedPages + c.WLMovedPages }
	mapped := func(k Key, a nand.Addr, before uint64) {
		m.ref[k] = cfg.PPN(a)
		if moved() != before {
			m.syncPlane(f, cfg.PlaneID(a))
		}
	}
	var failedWrites, rebuilt, retired, resets int
	write := func(k Key) {
		before := moved()
		if a, _, err := f.MapWrite(k); err == nil {
			mapped(k, a, before)
		} else {
			failedWrites++
		}
	}
	dead := 0
	var gcRuns uint64
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(20); {
		case op < 6: // scattered writes
			// Writes may fail once dead dies shrink a narrow channel
			// set; a failed overwrite leaves the old mapping.
			for i := 0; i < 64; i++ {
				write(randKey())
			}
		case op < 9: // reads, preloading unwritten pages
			for i := 0; i < 64; i++ {
				k := randKey()
				before := moved()
				a, err := f.MapRead(k)
				if want, ok := m.ref[k]; ok && (err != nil || f.cfg.PPN(a) != want) {
					t.Fatalf("step %d: MapRead(%v) = %v, reference %v", step, k, f.cfg.PPN(a), want)
				}
				if err == nil {
					mapped(k, a, before)
				}
			}
		case op < 11: // overwrite storm: rewrite a tenant's span
			tn := tenants[rng.Intn(len(tenants))]
			for lpn := int64(base); lpn < base+span; lpn++ {
				write(Key{Tenant: tn, LPN: lpn})
			}
		case op < 14: // rebind
			tn := tenants[rng.Intn(len(tenants))]
			var set []int
			if rng.Intn(4) > 0 {
				set = rng.Perm(cfg.Channels)[:1+rng.Intn(cfg.Channels)]
			}
			if err := f.SetTenantChannels(tn, set); err != nil {
				t.Fatal(err)
			}
			f.SetTenantMode(tn, PageMode(rng.Intn(2)))
		case op < 16: // die failure
			if dead >= 3 {
				continue
			}
			die := rng.Intn(cfg.TotalDies())
			if f.health.DieDead(die) {
				continue
			}
			var want []Key
			for k, ppn := range m.ref {
				if cfg.DieID(cfg.AddrOf(ppn)) == die {
					want = append(want, k)
				}
			}
			slices.SortFunc(want, keyOrder)
			n, _ := f.FailDie(die)
			rebuilt += n
			dead++
			if !slices.Equal(f.rebuild, want) {
				t.Fatalf("step %d: FailDie(%d) rebuilt %v, want (tenant, LPN) order %v", step, die, f.rebuild, want)
			}
		case op < 19: // block retirement
			n, _ := f.RetireBlock(rng.Intn(cfg.TotalPlanes()), rng.Intn(cfg.BlocksPerPlane))
			retired += n
		default: // back to factory state, then re-season
			gcRuns += f.Counters().GCRuns
			f.Reset()
			f.SetHealth(nand.NewHealth(cfg, &nand.FaultPlan{Seed: 1}))
			if err := f.Season(0.5, 5, 1); err != nil {
				t.Fatal(err)
			}
			dead = 0
			resets++
			m = newPageModel(f)
		}
		m.sync(f)
		m.check(t, f, step, universe)
	}
	gcRuns += f.Counters().GCRuns
	t.Logf("%d GC runs, %d failed writes, %d pages rebuilt, %d relocated off retired blocks, %d resets",
		gcRuns, failedWrites, rebuilt, retired, resets)
	if gcRuns == 0 || failedWrites == 0 || rebuilt == 0 || retired == 0 || resets == 0 {
		t.Fatal("the mix missed a path it is meant to cover")
	}
}

// TestPageTableHugeLPNs maps the largest LPNs a page size can produce and
// checks the table grows with the chunks touched, not with the LPN.
func TestPageTableHugeLPNs(t *testing.T) {
	f := mustFTL(t, nand.TinyConfig(), nil)
	keys := []Key{{Tenant: 0, LPN: 1 << 50}, {Tenant: 0, LPN: math.MaxInt64 / 16384}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if _, _, err := f.MapWrite(k); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("mapping 2 huge LPNs grew the heap by %d bytes, want < 1 MiB", grew)
	}
	for _, k := range keys {
		if _, ok := f.Lookup(k); !ok {
			t.Errorf("%v unmapped", k)
		}
		if _, ok := f.Lookup(Key{Tenant: 0, LPN: k.LPN - 1}); ok {
			t.Errorf("neighbour of %v mapped", k)
		}
	}
	if got := f.Counters().Mapped; got != 2 {
		t.Errorf("Mapped = %d, want 2", got)
	}
	runtime.KeepAlive(f)
}

// TestMapSteadyStateAllocs pins zero allocations per steady-state MapWrite
// and MapRead — GC included — for a tenant bound to a channel set and for
// an unbound one.
func TestMapSteadyStateAllocs(t *testing.T) {
	f := seasonedHealthFTL(t, nand.TinyConfig())
	if err := f.SetTenantChannels(0, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	for _, tn := range []int{0, 1} {
		for r := 0; r < 8; r++ {
			for lpn := int64(0); lpn < pages; lpn++ {
				if _, _, err := f.MapWrite(Key{Tenant: tn, LPN: lpn}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	gcBefore := f.Counters().GCRuns
	for _, tn := range []int{0, 1} {
		var lpn int64
		if n := testing.AllocsPerRun(2000, func() {
			f.MapWrite(Key{Tenant: tn, LPN: lpn % pages})
			lpn++
		}); n != 0 {
			t.Errorf("tenant %d: MapWrite allocates %v per op, want 0", tn, n)
		}
		// Reads of mapped pages, then preloads of unwritten pages in the
		// same chunk.
		lpn = 0
		if n := testing.AllocsPerRun(2*pages, func() {
			f.MapRead(Key{Tenant: tn, LPN: lpn})
			lpn++
		}); n != 0 {
			t.Errorf("tenant %d: MapRead allocates %v per op, want 0", tn, n)
		}
	}
	if f.Counters().GCRuns == gcBefore {
		t.Fatal("no GC ran in the measured loop")
	}
}

// BenchmarkFTLMapWrite overwrites the 4096-page spaces of four tenants, each
// bound to two channels, on a seasoned EvalConfig FTL, so every few writes
// garbage-collect and relocate.
func BenchmarkFTLMapWrite(b *testing.B) {
	cfg := nand.EvalConfig()
	f, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Season(0.5, 5, 1); err != nil {
		b.Fatal(err)
	}
	const tenants, pages = 4, 4096
	for tn := 0; tn < tenants; tn++ {
		if err := f.SetTenantChannels(tn, []int{2 * tn, 2*tn + 1}); err != nil {
			b.Fatal(err)
		}
	}
	write := func(i int) {
		k := Key{Tenant: i % tenants, LPN: int64(i/tenants) % pages}
		if _, _, err := f.MapWrite(k); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*tenants*pages; i++ {
		write(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
}
