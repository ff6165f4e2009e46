// Package a pins a stale carrier fingerprint: the directive's value
// no longer matches the struct layout, as after adding a field.
package a

import "fpcache/internal/snap"

//fplint:snapfields 0xdeadbeef // want `directive records 0xdeadbeef .*refresh the directive; bump the snapshot version const, with the codec, only if the bytes the codec writes changed`
const stateVersion = 1

var _ = stateVersion

// meta gained a field since the directive was written.
type meta struct{ valid, dirty, spread uint64 }

func saveMeta(w *snap.Writer, m *meta) {
	w.U64(m.valid)
	w.U64(m.dirty)
	w.U64(m.spread)
}
