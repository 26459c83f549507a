package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"portsim/internal/trace"
	"portsim/internal/workload"
)

// recipe is the stream identity of one cell: the profile every process
// generates from, the process count, and the scheduling quantum. A named
// workload is recipe{ByName(name), 1, 0}; the kernel-intensity sweep
// mutates the profile and the multiprogramming sweep raises the process
// count under a quantum. Every cell, whatever its recipe, resolves through
// the same memo → store → simulate lookup, keyed by the recipe's
// fingerprint plus the machine configuration.
type recipe struct {
	prof workload.Profile
	// processes is the number of interleaved program instances; quantum
	// is their mean scheduling quantum in instructions. A zero quantum is
	// the plain single-program stream.
	processes int
	quantum   int
	// name is the cell's display name in tables, events, faults and store
	// keys: the profile name, suffixed "-xN" for a multiprogrammed mix.
	name string
	// profJSON is the profile's canonical JSON, shared with the arena key
	// so arena acquisition never re-marshals it.
	profJSON string
	// id is the fingerprint: SHA-256 over the canonical recipe JSON,
	// first 8 bytes, hex. It is the store key's Stream field, so editing
	// any profile parameter invalidates that profile's stored cells.
	id string
}

// newRecipe builds and fingerprints a recipe.
func newRecipe(prof workload.Profile, processes, quantum int) (*recipe, error) {
	if processes < 1 || (quantum == 0 && processes != 1) {
		return nil, fmt.Errorf("experiments: %s: %d processes with quantum %d is not a stream", prof.Name, processes, quantum)
	}
	profJSON, err := json.Marshal(prof)
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(struct {
		Profile   json.RawMessage `json:"profile"`
		Processes int             `json:"processes"`
		Quantum   int             `json:"quantum"`
	}{profJSON, processes, quantum})
	if err != nil {
		return nil, err
	}
	name := prof.Name
	if quantum > 0 {
		name = fmt.Sprintf("%s-x%d", prof.Name, processes)
	}
	sum := sha256.Sum256(doc)
	return &recipe{
		prof:      prof,
		processes: processes,
		quantum:   quantum,
		name:      name,
		profJSON:  string(profJSON),
		id:        hex.EncodeToString(sum[:8]),
	}, nil
}

// builtinRecipes fingerprints every built-in workload once per process:
// Run resolves a name on every submission, memo hits included, and the
// built-in profiles never change while the process runs.
var builtinRecipes = sync.OnceValues(func() (map[string]*recipe, error) {
	recipes := make(map[string]*recipe)
	for _, prof := range workload.Profiles() {
		rc, err := newRecipe(prof, 1, 0)
		if err != nil {
			return nil, err
		}
		recipes[prof.Name] = rc
	}
	return recipes, nil
})

// namedRecipe resolves a built-in workload name to its single-program
// recipe.
func namedRecipe(name string) (*recipe, error) {
	recipes, err := builtinRecipes()
	if err != nil {
		return nil, err
	}
	rc, ok := recipes[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	return rc, nil
}

// openStream returns the recipe's instruction stream and a release closure
// (nil when nothing is held). A single-program stream is a cursor over the
// shared arena when the registry can hold the trace, the live generator
// otherwise. A multiprogrammed stream replays the quantum interleave over
// per-process cursors when the registry holds every process's trace —
// instruction-identical to the live NewMultiprogram stream (golden-tested
// in internal/workload) — and falls back to live generation wholesale
// otherwise.
func (r *Runner) openStream(rc *recipe) (trace.Stream, func(), error) {
	if rc.quantum == 0 {
		if r.arenas != nil {
			cur, release, err := r.arenas.acquire(rc, r.spec.Seed, r.arenaLen())
			if err != nil {
				return nil, nil, err
			}
			if cur != nil {
				return cur, release, nil
			}
		}
		gen, err := workload.New(rc.prof, r.spec.Seed)
		if err != nil {
			return nil, nil, err
		}
		return gen, nil, nil
	}
	if r.arenas != nil {
		cursors := make([]*trace.Cursor, 0, rc.processes)
		releases := make([]func(), 0, rc.processes)
		releaseAll := func() {
			for _, rel := range releases {
				rel()
			}
		}
		for i := 0; i < rc.processes; i++ {
			cur, rel, err := r.arenas.acquire(rc, r.spec.Seed+int64(i)*workload.SeedStride, r.arenaLen())
			if err != nil {
				releaseAll()
				return nil, nil, err
			}
			if cur == nil {
				break
			}
			cursors = append(cursors, cur)
			releases = append(releases, rel)
		}
		if len(cursors) == rc.processes {
			mp, err := workload.NewMultiprogramReplay(cursors, rc.quantum, r.spec.Seed)
			if err != nil {
				releaseAll()
				return nil, nil, err
			}
			return mp, releaseAll, nil
		}
		releaseAll()
	}
	mp, err := workload.NewMultiprogram(rc.prof, rc.processes, rc.quantum, r.spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	return mp, nil, nil
}
