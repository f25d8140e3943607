package main

import (
	_ "embed"
	"encoding/json"
)

// referenceSeed is the workload seed whose outputs are committed in
// reference.json.
const referenceSeed = 1

// reference is the committed output of one workload at referenceSeed:
// the round digest, which folds every universe's digest in index order.
type reference struct {
	Round string `json:"round"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, err
	}
	return refs, nil
}

// referenceFor returns the committed reference for a workload run at
// the given seed with n universes per round, if there is one. Rounds
// of another size, which only tests run, have none.
func referenceFor(w *workloadDef, seed uint64, n int) (reference, bool) {
	if seed != referenceSeed || n != w.universes {
		return reference{}, false
	}
	refs, err := loadReferences()
	if err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	ref, ok := refs[w.name]
	return ref, ok
}
