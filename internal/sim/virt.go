package sim

import (
	"tmcc/internal/config"
	"tmcc/internal/mc"
	"tmcc/internal/pagetable"
)

// Virtualization support (Figure 12b): under a VM, a guest page walk is a
// 2D walk — every guest PTB lives at a guest-physical address that itself
// needs a host walk, and the final guest-physical data address needs one
// more. All host walks use host PTBs, so TMCC's embedded CTEs accelerate
// every constituent walk exactly as in the native case ("TMCC carries out
// the same actions during each page walk within a 2D page walk").
//
// The model: the trace's virtual pages map through a guest page table to
// guest-physical pages, which map through a host page table to host
// -physical pages; the memory controller manages host-physical memory.
// Nested-TLB hits skip the whole 2D walk; a per-core gpa-walk cache lets
// individual host walks start below L4, as in hardware nested paging.

// buildVirt constructs the guest and host address spaces. The host maps
// every guest-physical page (data + guest table pages); the MC's OS pool is
// the host pool. Both functional translation tables are dense slices: the
// host's gpn -> hpn table is the host space's own, and the composed
// vpn -> hpn table is filled eagerly here from the two dense tables, so
// per-access probes reduce to a bounds check and a load.
func buildVirt(r *Runner, osPages uint64, seed int64) {
	spec := r.spec
	// Guest table: vpn -> gpn over a guest-physical pool sized to the
	// footprint plus guest page tables.
	guestPool := spec.FootprintPages + spec.FootprintPages/64 + 2048 //tmcclint:allow magic-literal (table-page slack heuristic)
	gCfg := pagetable.DefaultOSConfig(seed + 5)
	guest := newAddressSpace(spec.FootprintPages, guestPool, gCfg)
	// Host table: gpn -> hpn. Every guest-physical page is host-mapped;
	// the host pool is the MC's OS space.
	hCfg := pagetable.DefaultOSConfig(seed + 6)
	host := newAddressSpace(guestPool, osPages, hCfg)

	r.guest = guest
	r.as = host // the "physical" space the MC sees is host-physical
	// The host maps gpn at vpn VBase+gpn, so its dense table is already
	// gpn-indexed.
	r.gpaToHost = host.VPNToPPN
	r.vlo = guest.VBase
	r.vpnToPPN = make([]uint64, len(guest.VPNToPPN))
	for i, gpn := range guest.VPNToPPN {
		r.vpnToPPN[i] = unmappedPPN
		if h, ok := r.hostPPN(gpn); ok {
			r.vpnToPPN[i] = h
		}
	}
}

// hostPPN resolves a guest-physical page to its host-physical page
// (functional; the timing cost is modeled by walk2D).
func (r *Runner) hostPPN(gpn uint64) (uint64, bool) {
	if gpn >= uint64(len(r.gpaToHost)) || r.gpaToHost[gpn] == unmappedPPN {
		return 0, false
	}
	return r.gpaToHost[gpn], true
}

// hostWalk performs one constituent host walk for a guest-physical page,
// fetching host PTBs through the hierarchy with TMCC's embedding machinery.
func (r *Runner) hostWalk(c *core, t config.Time, gpn uint64) config.Time {
	lo, _ := r.as.VPNRange()
	vpn := lo + gpn
	if c.gwc.Lookup(gpn) {
		return t // nested walk-cache hit: translation is at hand
	}
	startLevel := c.wc.WalkStart(vpn)
	steps, _, ok := r.as.Table.WalkAppend(r.walkBuf, vpn)
	if !ok {
		return t
	}
	for _, s := range steps {
		if s.Level > startLevel {
			continue
		}
		if r.recording {
			r.m.WalkRefs++
		}
		t = r.memAccess(c, t, s.PTBAddr/config.BlockSize, false, true, true)
		if r.opt.Kind == mc.TMCC && !r.opt.DisableEmbed {
			r.loadCTEBuffer(c, s.PTBAddr)
		}
	}
	c.wc.FillFromWalk(vpn)
	c.gwc.Insert(gpn)
	return t
}

// walk2D performs the full nested walk for a guest-virtual page and
// returns (completion time, final host PPN of the data page). Guest steps
// use their own buffer: they stay live across the nested host walks, which
// reuse the host walk buffer.
func (r *Runner) walk2D(c *core, t config.Time, vpn uint64) (config.Time, uint64, bool) {
	gsteps, gpn, ok := r.guest.Table.WalkAppend(r.gwalkBuf, vpn)
	if !ok {
		return t, 0, false
	}
	// Each guest level: host-walk the gPTB's guest-physical page, then
	// fetch the gPTB itself (a normal data block in host memory).
	for _, s := range gsteps {
		gptbGPN := s.PTBAddr >> 12
		t = r.hostWalk(c, t, gptbGPN)
		hp, ok := r.hostPPN(gptbGPN)
		if !ok {
			continue
		}
		hostAddr := hp<<12 + s.PTBAddr&4095
		if r.recording {
			r.m.WalkRefs++
		}
		t = r.memAccess(c, t, hostAddr/config.BlockSize, false, true, true)
	}
	// Final host walk for the data page itself.
	t = r.hostWalk(c, t, gpn)
	hp, ok := r.hostPPN(gpn)
	return t, hp, ok
}

// lookupVirtData returns the host PPN for a guest-virtual page without
// timing (a dense-table read; buildVirt precomputed the composition).
func (r *Runner) lookupVirtData(vpn uint64) (uint64, bool) {
	h := r.translate(vpn)
	return h, h != unmappedPPN
}

// placeVirt performs placement for the virtualized system: data pages (in
// hotness order) and then every table page — guest tables are data from the
// host's view, host tables are the walker's working set.
func (r *Runner) placeVirt() error {
	lo, hi := r.guest.VPNRange()
	footprint := hi - lo
	order := r.placementOrder(lo, footprint)
	ml1Pages, err := r.planML1(footprint)
	if err != nil {
		return err
	}
	for i, vpn := range order {
		hp, ok := r.lookupVirtData(vpn)
		if !ok {
			continue
		}
		r.mcc.Place(hp, uint64(i) >= ml1Pages)
	}
	// Guest table pages (they live in guest-physical space) and host table
	// pages are all hot.
	var tablePPNs []uint64
	for _, gpn := range r.guest.Table.TablePagePPNs() {
		if hp, ok := r.hostPPN(gpn); ok {
			tablePPNs = append(tablePPNs, hp)
		}
	}
	tablePPNs = append(tablePPNs, r.as.Table.TablePagePPNs()...)
	for _, ppn := range tablePPNs {
		r.mcc.Place(ppn, false)
	}
	for i := len(order) - 1; i >= 0; i-- {
		if hp, ok := r.lookupVirtData(order[i]); ok {
			r.mcc.TouchPage(hp)
		}
	}
	for _, ppn := range tablePPNs {
		r.mcc.TouchPage(ppn)
	}
	return nil
}
