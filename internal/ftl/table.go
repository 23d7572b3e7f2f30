package ftl

import (
	"cmp"
	"fmt"
	"slices"
)

// The logical-to-physical page table. Real page-level FTLs do not hash: they
// index a directory of fixed-size translation pages (DFTL's layout, which
// the CMT in cmt.go models the caching of). The table here has the same
// shape, per tenant: a sorted directory of chunks of chunkSize entries, each
// entry holding PPN+1 so the zero value means unmapped and a cleared chunk
// is an empty one. A request's pages, and a tenant's 64 MiB working set, fall
// in one chunk, so a one-entry last-chunk cache answers almost every lookup
// without touching the directory. Memory scales with the chunks touched, not
// with the largest LPN.
//
// Tenant state is indexed by tenant+1 (slot 0 is the cold seasoning tenant)
// for the small dense ids every tenant source produces; ids of maxDenseTenant
// and above live in a sorted overflow list so a stray huge id costs one
// state, not a slot array sized to it. Tenant sources reject negative ids,
// and the cold tenant is the only one the FTL makes.

const (
	chunkShift = 12
	chunkSize  = 1 << chunkShift // entries per translation chunk (32 KiB)
	chunkMask  = chunkSize - 1

	// maxDenseTenant bounds the tenant-indexed slot array.
	maxDenseTenant = 1 << 12
)

// chunk is one translation page: entry i holds PPN+1 of the LPN
// idx<<chunkShift | i, or 0 if that page is unmapped.
type chunk [chunkSize]int64

// dirEntry is one directory slot: the chunk covering LPNs
// [idx<<chunkShift, (idx+1)<<chunkShift).
type dirEntry struct {
	idx int64
	c   *chunk
}

// tenantState is what the FTL keeps per tenant: its channel set, its page
// allocation mode and its page table.
type tenantState struct {
	id       int
	channels []int // nil = all channels
	mode     PageMode

	dir     []dirEntry // sorted by idx
	lastIdx int64      // directory index of last; valid when last != nil
	last    *chunk
}

// find returns the chunk with directory index idx, or nil.
func (t *tenantState) find(idx int64) *chunk {
	if t.last != nil && t.lastIdx == idx {
		return t.last
	}
	i, ok := t.search(idx)
	if !ok {
		return nil
	}
	t.lastIdx, t.last = idx, t.dir[i].c
	return t.last
}

func (t *tenantState) search(idx int64) (int, bool) {
	return slices.BinarySearchFunc(t.dir, idx, func(e dirEntry, idx int64) int {
		return cmp.Compare(e.idx, idx)
	})
}

// get returns the PPN lpn maps to, if any.
func (t *tenantState) get(lpn int64) (int64, bool) {
	c := t.find(lpn >> chunkShift)
	if c == nil {
		return 0, false
	}
	v := c[lpn&chunkMask]
	return v - 1, v != 0
}

// tenant returns the state of tenant id, or nil if the FTL has not seen it.
func (f *FTL) tenant(id int) *tenantState {
	if i := id + 1; uint(i) < uint(len(f.tenants)) {
		return f.tenants[i]
	}
	if id < maxDenseTenant {
		return nil
	}
	if i, ok := f.searchFar(id); ok {
		return f.far[i]
	}
	return nil
}

// tenantFor returns the state of tenant id, creating it on first use.
func (f *FTL) tenantFor(id int) *tenantState {
	if t := f.tenant(id); t != nil {
		return t
	}
	if id < coldTenant {
		panic(fmt.Sprintf("ftl: negative tenant id %d", id))
	}
	t := &tenantState{id: id}
	if id < maxDenseTenant {
		for len(f.tenants) <= id+1 {
			f.tenants = append(f.tenants, nil)
		}
		f.tenants[id+1] = t
		return t
	}
	i, _ := f.searchFar(id)
	f.far = slices.Insert(f.far, i, t)
	return t
}

func (f *FTL) searchFar(id int) (int, bool) {
	return slices.BinarySearchFunc(f.far, id, func(t *tenantState, id int) int {
		return cmp.Compare(t.id, id)
	})
}

// setPPN maps t's lpn to ppn, allocating the covering chunk on first use.
func (f *FTL) setPPN(t *tenantState, lpn, ppn int64) {
	idx := lpn >> chunkShift
	c := t.find(idx)
	if c == nil {
		c = new(chunk)
		i, _ := t.search(idx)
		t.dir = slices.Insert(t.dir, i, dirEntry{idx: idx, c: c})
		t.lastIdx, t.last = idx, c
	}
	e := &c[lpn&chunkMask]
	if *e == 0 {
		f.mapped++
	}
	*e = ppn + 1
}

// eachTenant visits every tenant state in ascending id order.
func (f *FTL) eachTenant(fn func(*tenantState)) {
	for _, t := range f.tenants {
		if t != nil {
			fn(t)
		}
	}
	for _, t := range f.far {
		fn(t)
	}
}

// eachMapping visits every mapped page in (tenant, LPN) order.
func (f *FTL) eachMapping(fn func(k Key, ppn int64)) {
	f.eachTenant(func(t *tenantState) {
		for _, e := range t.dir {
			for i, v := range e.c {
				if v != 0 {
					fn(Key{Tenant: t.id, LPN: e.idx<<chunkShift | int64(i)}, v-1)
				}
			}
		}
	})
}

// resetTenants unbinds every tenant and empties the page table. Each tenant
// keeps its cleared chunks, which read as unmapped, for when it writes again.
func (f *FTL) resetTenants() {
	f.eachTenant(func(t *tenantState) {
		for _, e := range t.dir {
			clear(e.c[:])
		}
		t.channels, t.mode = nil, StaticAlloc
	})
	f.mapped = 0
}
