package fleet

// HostInfo is the per-host snapshot a placement policy sees. Policies are
// control-plane code: they consult fleet bookkeeping (commitments) and
// guest-observable telemetry (steal), never host physics.
type HostInfo struct {
	Index     int
	Committed int     // vCPUs currently committed
	Capacity  int     // admission bound (overcommit * threads)
	VMs       int     // alive VMs placed here
	StealRate float64 // EMA steal fraction per thread, 0..~1
}

// Fits reports whether a VM of the given size can be admitted.
func (h HostInfo) Fits(vcpus int) bool { return h.Committed+vcpus <= h.Capacity }

// Policy decides where an arriving VM goes. Both fleet tiers place through
// a HostIndex (see index.go) in O(log hosts): the tier stores Score for each
// host whenever that host's commitments or telemetry change, and
// PlaceIndexed picks from the index.
//
// Place is the linear reference: it returns a host index that Fits the
// request, or -1 to reject, by scanning a snapshot. PlaceIndexed over fresh
// scores must agree with Place over a fresh snapshot (pinned by the
// differential test in index_test.go). Implementations must be
// deterministic pure functions of the snapshot: ranked policies break every
// tie toward the lowest host ID, snapshots arrive in stable host-ID order
// (never map iteration), and heterogeneous Capacity values must not disturb
// either property — the cluster may mix host classes (see internal/cloudgen).
type Policy interface {
	Name() string
	// Place picks a fitting host by a linear scan of the snapshot, or -1.
	Place(hosts []HostInfo, vcpus int) int
	// Score returns the value the index minimises for this host; lower is
	// better. Policies that don't rank (first-fit) return 0.
	Score(h HostInfo) float64
	// PlaceIndexed picks a fitting host from the index, or -1.
	PlaceIndexed(ix *HostIndex, vcpus int) int
}

// FirstFit packs: the lowest-indexed host with room wins. The classic
// fragmentation-averse default — and the policy that piles neighbours onto
// the same threads while later hosts idle.
type FirstFit struct{}

func (FirstFit) Name() string { return "first-fit" }

func (FirstFit) Place(hosts []HostInfo, vcpus int) int {
	for _, h := range hosts {
		if h.Fits(vcpus) {
			return h.Index
		}
	}
	return -1
}

func (FirstFit) Score(HostInfo) float64 { return 0 }

func (FirstFit) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.FirstFit(vcpus) }

// LeastLoaded spreads (worst-fit): the fitting host with the fewest
// committed vCPUs wins, ties to the lower index — explicitly by absolute
// commitments, not utilization, so on a heterogeneous fleet equal-committed
// hosts of different capacities still tie and resolve by host ID. Balances
// *promised* capacity, blind to how much of it is actually being fought
// over.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Place(hosts []HostInfo, vcpus int) int {
	best := -1
	for _, h := range hosts {
		if !h.Fits(vcpus) {
			continue
		}
		if best < 0 || h.Committed < hosts[best].Committed {
			best = h.Index
		}
	}
	return best
}

func (LeastLoaded) Score(h HostInfo) float64 { return float64(h.Committed) }

func (LeastLoaded) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }

// StealAware is the fleet-level analogue of vSched's insight: commitments
// lie the same way the vCPU abstraction lies, so consult measured steal.
// Each fitting host is scored stealRate + 0.1*utilization and the lowest
// score wins (ties to the lower index): measured contention dominates, and
// the small utilization term keeps placement spread while the steal signal
// is still warming up — without it, an idle-but-overcommitted host would
// soak up arrivals until the damage shows up in telemetry one EMA late.
// A batch-heavy host repels new tenants even when its commitment count
// looks moderate. Utilization is relative to each host's own Capacity, so
// heterogeneous fleets rank fairly; exact score ties (same steal, same
// utilization) resolve to the lower host ID via the strict comparison.
type StealAware struct{}

func (StealAware) Name() string { return "steal-aware" }

func (StealAware) Place(hosts []HostInfo, vcpus int) int {
	best := -1
	bestScore := 0.0
	for _, h := range hosts {
		if !h.Fits(vcpus) {
			continue
		}
		score := h.StealRate + 0.1*float64(h.Committed)/float64(h.Capacity)
		if best < 0 || score < bestScore {
			best, bestScore = h.Index, score
		}
	}
	return best
}

func (StealAware) Score(h HostInfo) float64 {
	return h.StealRate + 0.1*float64(h.Committed)/float64(h.Capacity)
}

func (StealAware) PlaceIndexed(ix *HostIndex, vcpus int) int { return ix.BestScore(vcpus) }
