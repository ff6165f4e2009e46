// Package a exercises the snapmeta analyzer: an unpaired Snapshot, a
// versionless Snapshot/Restore pair, and serialized carrier structs
// with no pinned field fingerprint.
package a // want `pins no field fingerprint; add .* bump that const only when the bytes the codec writes change`

import (
	"errors"
	"io"

	"fpcache/internal/snap"
)

const stateVersion = 1

var errFormat = errors.New("bad version")

// SnapOnly implements Snapshot but not Restore.
type SnapOnly struct{ n uint64 } // want `implements Snapshot\(io.Writer\) error but no Restore`

// Snapshot serializes the value.
func (s *SnapOnly) Snapshot(w io.Writer) error {
	_, err := w.Write([]byte{byte(s.n)})
	return err
}

// Unversioned pairs Snapshot with Restore but neither side touches a
// version tag.
type Unversioned struct{ n uint64 }

func (u *Unversioned) Snapshot(w io.Writer) error { // want `handles no snapshot version tag`
	_, err := w.Write([]byte{byte(u.n)})
	return err
}

func (u *Unversioned) Restore(r io.Reader) error { // want `handles no snapshot version tag`
	var buf [1]byte
	_, err := io.ReadFull(r, buf[:])
	u.n = uint64(buf[0])
	return err
}

// Versioned does everything right: paired methods, a version tag
// written and checked.
type Versioned struct{ n uint64 }

func (v *Versioned) Snapshot(w io.Writer) error {
	_, err := w.Write([]byte{stateVersion, byte(v.n)})
	return err
}

func (v *Versioned) Restore(r io.Reader) error {
	var buf [2]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	if buf[0] != stateVersion {
		return errFormat
	}
	v.n = uint64(buf[1])
	return nil
}

// meta is a carrier: a struct streamed through the snap codec.
type meta struct{ valid, dirty uint64 }

func saveMeta(w *snap.Writer, m *meta) {
	w.U64(m.valid)
	w.U64(m.dirty)
}
