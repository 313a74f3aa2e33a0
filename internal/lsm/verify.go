package lsm

import (
	"bytes"
	"fmt"

	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

// IntegrityReport summarises a VerifyIntegrity pass.
type IntegrityReport struct {
	Files         int
	Entries       uint64
	BlocksChecked int64
}

// VerifyIntegrity reads every table in the current version, validating
// block checksums (every block read re-verifies its CRC), per-file key
// ordering, agreement with the manifest's bounds and entry counts, and the
// level invariants (L1+ files sorted and non-overlapping). It is the
// engine's fsck, exposed through `lsmtool check`.
func (d *DB) VerifyIntegrity() (IntegrityReport, error) {
	snap, err := d.pinSnapshot()
	if err != nil {
		return IntegrityReport{}, err
	}
	defer d.releaseVersion(snap.h)

	var rep IntegrityReport
	for level, files := range snap.h.v.Levels {
		var prevLargest []byte
		for i, f := range files {
			// Level invariants (L1+ only; L0 may overlap).
			if level > 0 {
				if i > 0 && bytes.Compare(f.Smallest.UserKey(), prevLargest) <= 0 {
					return rep, fmt.Errorf("level %d: file %06d overlaps predecessor (%q <= %q)",
						level, f.FileNum, f.Smallest.UserKey(), prevLargest)
				}
				prevLargest = f.Largest.UserKey()
			}

			r, err := d.tc.get(f.FileNum)
			if err == nil {
				err = checkTable(r, f)
			}
			if err != nil {
				return rep, fmt.Errorf("level %d file %06d: %w", level, f.FileNum, err)
			}
			rep.Files++
			rep.Entries += f.NumEntries
			rep.BlocksChecked += int64(r.Size()) / int64(d.opts.blockSize)
		}
	}
	return rep, nil
}

// checkTable reads every block of r through a cache-bypassing iterator
// (each read re-verifies its checksum) and checks the keys against meta:
// strictly ascending, the first and last equal to meta's bounds, as many as
// meta counts. It is the paranoid check of a new table and VerifyIntegrity's
// check of a live one.
func checkTable(r *sstable.Reader, meta *manifest.FileMeta) error {
	it, err := r.NewIterNoCache()
	if err != nil {
		return err
	}
	defer it.Close()
	var prev keys.InternalKey
	var count uint64
	for ok := it.First(); ok; ok = it.Next() {
		ik := it.Key()
		if prev != nil && keys.Compare(prev, ik) >= 0 {
			return fmt.Errorf("keys out of order (%s >= %s)", prev, ik)
		}
		if count == 0 && keys.Compare(ik, meta.Smallest) != 0 {
			return fmt.Errorf("first key %s != manifest smallest %s", ik, meta.Smallest)
		}
		prev = append(prev[:0], ik...)
		count++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if count != meta.NumEntries {
		return fmt.Errorf("%d entries, manifest says %d", count, meta.NumEntries)
	}
	if count > 0 && keys.Compare(prev, meta.Largest) != 0 {
		return fmt.Errorf("last key %s != manifest largest %s", prev, meta.Largest)
	}
	return nil
}
