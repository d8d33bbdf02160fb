// Command dualsim is a layering fixture: a command that builds a pruned
// copy of the store — by call, method value or method expression — is
// flagged; reading the filter is not.
package main

import (
	"dualsim/internal/prune"
	"dualsim/internal/storage"
)

func main() { _ = rebuild(nil, nil) }

func rebuild(p *prune.Pruning, st *storage.Store) []any {
	materialize := (*prune.Pruning).Store // want `rebuilds the pruned store through prune\.Pruning\.Store`
	return []any{
		p.Store(),         // want `rebuilds the pruned store through prune\.Pruning\.Store`
		st.RestrictByMask, // want `rebuilds the pruned store through storage\.Store\.RestrictByMask`
		materialize,
		p.Filter(),
	}
}
