package catalog

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrUnknownAdvertiser reports a patch op referencing an advertiser index
// that does not exist in the entry being patched (servers map it to 409:
// the caller's view of the market is stale).
var ErrUnknownAdvertiser = errors.New("catalog: unknown advertiser")

// PatchOp is one advertiser mutation in a PATCH request. Advertiser indexes
// reference the pre-patch entry — every op in one Patch call is resolved
// against the same generation, so a client that read the instance listing
// can compose a whole day of churn without tracking intermediate indexes.
type PatchOp struct {
	// Op is "add", "remove" or "revise".
	Op string `json:"op"`
	// Advertiser is the pre-patch advertiser index for "remove" and
	// "revise"; ignored by "add".
	Advertiser int `json:"advertiser,omitempty"`
	// Demand is the demanded influence I_i: required (>= 1) for "add" and
	// "revise"; ignored by "remove".
	Demand int64 `json:"demand,omitempty"`
	// Payment is the committed payment L_i: required (>= 0) for "add". For
	// "revise" a positive value replaces the payment and zero keeps the
	// current one (a revision that zeroes a payment is a "remove" in all
	// but name — model it as remove + add).
	Payment float64 `json:"payment,omitempty"`
}

// PatchResult maps the patched entry back onto its predecessor — the
// information a warm-starting solver needs to carry an incumbent plan
// across the generation bump.
type PatchResult struct {
	// OldIndexOf[j] is the pre-patch index of post-patch advertiser j, or
	// -1 when j was added by this patch.
	OldIndexOf []int
	// Dirty[j] reports that post-patch advertiser j cannot reuse its
	// incumbent billboard set as-is: it was added or its demand was
	// revised. Advertisers that merely shifted index are not dirty.
	Dirty []bool
	// Removed is the number of advertisers the patch removed. A removal
	// frees the supply the incumbent had assigned to it, which widens the
	// neighborhood of every remaining advertiser (core.WarmStart.FreedSupply).
	Removed int
}

// Patch applies ops to the named entry as one atomic copy-on-write rebuild:
// the coverage universe, γ, impression threshold and regret model are
// reused unchanged, only the advertiser set is rewritten, and the result is
// installed under a fresh generation. In-flight solves keep the entry they
// resolved; the solve cache keys on generation, so no stale plan can be
// served for the patched market.
//
// Ops are validated against the pre-patch advertiser set before anything is
// installed — on any error the catalog is unchanged. Unlike Load, the
// rebuild is cheap (no dataset work), so it runs under the writer lock,
// which makes concurrent patches linearizable: each sees its predecessor's
// result, and none is lost.
func (c *Catalog) Patch(name string, ops []PatchOp) (*Entry, PatchResult, error) {
	if len(ops) == 0 {
		return nil, PatchResult{}, errors.New("catalog: empty patch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	snap := c.snap.Load()
	if name == "" {
		name = snap.defaultName
	}
	old, ok := snap.entries[name]
	if !ok {
		return nil, PatchResult{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}

	n := old.Instance.NumAdvertisers()
	cur := make([]core.Advertiser, n)
	for i := range cur {
		cur[i] = old.Instance.Advertiser(i)
	}
	removed := make([]bool, n)
	revised := make([]bool, n)
	var added []core.Advertiser
	for k, op := range ops {
		switch op.Op {
		case "add":
			if op.Demand < 1 {
				return nil, PatchResult{}, fmt.Errorf("catalog: patch op %d: add demand %d < 1", k, op.Demand)
			}
			if op.Payment < 0 {
				return nil, PatchResult{}, fmt.Errorf("catalog: patch op %d: add payment %v < 0", k, op.Payment)
			}
			added = append(added, core.Advertiser{Demand: op.Demand, Payment: op.Payment})
		case "remove":
			if op.Advertiser < 0 || op.Advertiser >= n || removed[op.Advertiser] {
				return nil, PatchResult{}, fmt.Errorf("%w: %d (entry %q has %d advertisers)", ErrUnknownAdvertiser, op.Advertiser, name, n)
			}
			removed[op.Advertiser] = true
		case "revise":
			if op.Advertiser < 0 || op.Advertiser >= n || removed[op.Advertiser] {
				return nil, PatchResult{}, fmt.Errorf("%w: %d (entry %q has %d advertisers)", ErrUnknownAdvertiser, op.Advertiser, name, n)
			}
			if op.Demand < 1 {
				return nil, PatchResult{}, fmt.Errorf("catalog: patch op %d: revise demand %d < 1", k, op.Demand)
			}
			cur[op.Advertiser].Demand = op.Demand
			if op.Payment > 0 {
				cur[op.Advertiser].Payment = op.Payment
			}
			revised[op.Advertiser] = true
		default:
			return nil, PatchResult{}, fmt.Errorf("catalog: patch op %d: unknown op %q (want add, remove or revise)", k, op.Op)
		}
	}

	res := PatchResult{}
	var advs []core.Advertiser
	for i := 0; i < n; i++ {
		if removed[i] {
			res.Removed++
			continue
		}
		advs = append(advs, cur[i])
		res.OldIndexOf = append(res.OldIndexOf, i)
		res.Dirty = append(res.Dirty, revised[i])
	}
	for _, a := range added {
		advs = append(advs, a)
		res.OldIndexOf = append(res.OldIndexOf, -1)
		res.Dirty = append(res.Dirty, true)
	}
	if len(advs) == 0 {
		return nil, PatchResult{}, errors.New("catalog: patch would remove every advertiser")
	}

	inst, err := core.NewInstanceWithImpressions(old.Instance.Universe(), advs,
		old.Instance.Gamma(), old.Instance.Impressions())
	if err == nil {
		// Models are stateless over plans and keyed to the universe (which
		// is shared), so the predecessor's model reattaches verbatim.
		inst, err = inst.WithModel(old.Instance.Model())
	}
	if err != nil {
		return nil, PatchResult{}, fmt.Errorf("catalog: patch %q: %w", name, err)
	}

	e := &Entry{Name: old.Name, Spec: old.Spec, Info: old.Info, Instance: inst,
		source: old.source, sharedFrom: old.sharedFrom}
	e.Info.Advertisers = len(advs)
	c.installLocked(e)
	return e, res, nil
}
