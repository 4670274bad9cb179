package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
)

// This file implements the server side of the delta-solve path (DESIGN.md
// §16): the incumbent store that remembers the last completed plan per
// (instance, model) pair, the PATCH /instances/{name}/advertisers endpoint
// that applies advertiser churn as a copy-on-write catalog rebuild, and the
// remapping that carries incumbents across a patch so a follow-up
// "warm_start": true solve can seed from them.

// incumbent is one stored plan: the per-advertiser billboard sets of the
// last completed, untruncated solve against a given (instance, model) pair,
// stamped with the catalog generation they are valid for. dirty and freed
// accumulate what PATCHes did to the entry since the plan was computed —
// exactly the core.WarmStart fields a delta solve needs.
type incumbent struct {
	generation uint64
	sets       [][]int
	dirty      []bool
	freed      bool
}

// incumbentKey joins instance name and model kind with a byte no valid
// instance name contains, so distinct pairs can never collide.
func incumbentKey(name, model string) string { return name + "\x00" + model }

// incumbentFor returns the warm-start seed for the entry's exact snapshot,
// or nil when the store has nothing usable — no plan recorded yet, or one
// recorded against a different generation that no remap has carried
// forward. The returned slices are never mutated by the store (remaps build
// fresh ones), so handing them to a running solve is safe.
func (s *Server) incumbentFor(entry *catalog.Entry) *core.WarmStart {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	inc := s.incumbents[incumbentKey(entry.Name, entry.Info.Model)]
	if inc == nil || inc.generation != entry.Generation {
		return nil
	}
	return &core.WarmStart{Sets: inc.sets, Dirty: inc.dirty, FreedSupply: inc.freed}
}

// storeIncumbent records a computed solve's plan as the incumbent for its
// (instance, model) pair. Truncated results are not incumbents — they are
// not the deterministic fixed point a warm replay wants to start from. The
// generation guard keeps a slow solve that resolved an old snapshot from
// overwriting the plan of a successor generation.
func (s *Server) storeIncumbent(entry *catalog.Entry, res *core.Anytime) {
	if res == nil || res.Plan == nil || res.Truncated {
		return
	}
	n := entry.Instance.NumAdvertisers()
	sets := make([][]int, n)
	for i := range sets {
		sets[i] = res.Plan.Set(i, nil)
	}
	key := incumbentKey(entry.Name, entry.Info.Model)
	s.incMu.Lock()
	defer s.incMu.Unlock()
	if cur := s.incumbents[key]; cur != nil && cur.generation > entry.Generation {
		return
	}
	s.incumbents[key] = &incumbent{generation: entry.Generation, sets: sets}
}

// patchIncumbents carries every incumbent for the name across one PATCH:
// sets are remapped through PatchResult.OldIndexOf (new advertisers start
// empty and dirty), dirt accumulates, and a removal marks the supply freed.
// The remap allocates fresh slices so a solve concurrently reading the old
// incumbent observes a consistent snapshot.
func (s *Server) patchIncumbents(name string, gen uint64, pr catalog.PatchResult) {
	prefix := name + "\x00"
	s.incMu.Lock()
	defer s.incMu.Unlock()
	for key, inc := range s.incumbents {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		sets := make([][]int, len(pr.OldIndexOf))
		dirty := make([]bool, len(pr.OldIndexOf))
		for j, oi := range pr.OldIndexOf {
			dirty[j] = pr.Dirty[j]
			if oi < 0 || oi >= len(inc.sets) {
				dirty[j] = true
				continue
			}
			sets[j] = inc.sets[oi]
			if oi < len(inc.dirty) && inc.dirty[oi] {
				dirty[j] = true
			}
		}
		s.incumbents[key] = &incumbent{
			generation: gen,
			sets:       sets,
			dirty:      dirty,
			freed:      inc.freed || pr.Removed > 0,
		}
	}
}

// dropIncumbents forgets every incumbent for the name — a PUT reload or
// DELETE rebuilds or removes the advertiser set wholesale, and no index
// mapping survives that.
func (s *Server) dropIncumbents(name string) {
	prefix := name + "\x00"
	s.incMu.Lock()
	defer s.incMu.Unlock()
	for key := range s.incumbents {
		if strings.HasPrefix(key, prefix) {
			delete(s.incumbents, key)
		}
	}
}

// patchRequest is the JSON body of PATCH /instances/{name}/advertisers.
type patchRequest struct {
	Ops []catalog.PatchOp `json:"ops"`
}

// handleInstancePatch applies an op list to the named instance as one
// atomic generation bump. Unknown advertiser indexes answer 409 — the
// caller's view of the market is stale and it should re-read before
// retrying — and an unknown name 404. On success the cache entries for the
// replaced generations are dropped (requests still holding one re-resolve,
// as after a reload) and the stored incumbents are remapped so a
// warm-started solve can pick up right where the patched market's
// predecessor left off.
func (s *Server) handleInstancePatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req patchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode patch: %v", err)
		return
	}
	e, pr, err := s.catalog.Patch(name, req.Ops)
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		writeError(w, http.StatusNotFound, "unknown instance %q", name)
		return
	case errors.Is(err, catalog.ErrUnknownAdvertiser):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.patches.Inc()
	if s.cache != nil {
		s.cache.InvalidateInstance(e.Name, e.Generation)
	}
	s.patchIncumbents(e.Name, e.Generation, pr)
	s.log.Info("instance patched",
		"instance", e.Name,
		"generation", e.Generation,
		"ops", len(req.Ops),
		"removed", pr.Removed,
		"advertisers", e.Info.Advertisers)
	writeJSON(w, http.StatusOK, s.instanceInfo(e))
}
