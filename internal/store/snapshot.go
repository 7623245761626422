package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshots are opaque payloads (the service serializes its predictor
// state into one) in a self-validating container:
//
//	8 bytes    magic "DSNAP\x00\x00\x01" (name + format version)
//	uint32 LE  payload length
//	uint32 LE  IEEE CRC32 of the payload
//	payload
//
// A snapshot becomes visible only by the write-temp + rename + dir-fsync
// dance, so a reader never observes a half-written file under its final
// name; the checksum catches the remaining failure modes (partial rename
// on a non-atomic filesystem, bit rot). Loading walks snapshots newest
// first and takes the first one that validates, which is what makes
// "write the new snapshot, then prune" safe with no write-ahead
// coordination: a torn new snapshot just falls back to its predecessor.

const snapMagic = "DSNAP\x00\x00\x01"

func snapName(seq uint64) string { return fmt.Sprintf("%016d.snap", seq) }

func parseSnapName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "%016d.snap", &seq); err != nil || snapName(seq) != name {
		return 0, false
	}
	return seq, true
}

// writeSnapshotFile atomically publishes payload as snapshot seq in dir.
// The header always describes the full payload; writeLen < len(payload)
// truncates only the written body (the fault-injection partial-write
// path), producing a published-but-defective snapshot that load-time
// validation must reject.
func writeSnapshotFile(dir string, seq uint64, payload []byte, writeLen int) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	header := make([]byte, 0, len(snapMagic)+8)
	header = append(header, snapMagic...)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(payload)))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(payload))
	if writeLen < 0 || writeLen > len(payload) {
		writeLen = len(payload)
	}
	if _, err := tmp.Write(header); err != nil {
		return cleanup(err)
	}
	if _, err := tmp.Write(payload[:writeLen]); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapName(seq))); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// readSnapshotFile loads and validates one snapshot container.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("store: snapshot %s too short", filepath.Base(path))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot %s has wrong magic", filepath.Base(path))
	}
	body := data[len(snapMagic):]
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) != 8+n {
		return nil, fmt.Errorf("store: snapshot %s declares %d payload bytes, has %d",
			filepath.Base(path), n, len(body)-8)
	}
	payload := body[8:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(body[4:]); got != want {
		return nil, fmt.Errorf("store: snapshot %s checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}

// listSnapshots returns the snapshot sequence numbers in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSnapName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadNewestSnapshot returns the payload of the newest snapshot in dir
// that validates, skipping (but not deleting) defective ones. ok is false
// when no valid snapshot exists.
func loadNewestSnapshot(dir string) (payload []byte, seq uint64, ok bool, err error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		p, rerr := readSnapshotFile(filepath.Join(dir, snapName(seqs[i])))
		if rerr == nil {
			return p, seqs[i], true, nil
		}
	}
	return nil, 0, false, nil
}

// pruneSnapshots removes all but the newest keep snapshots.
func pruneSnapshots(dir string, keep int) error {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	if len(seqs) <= keep {
		return nil
	}
	for _, seq := range seqs[:len(seqs)-keep] {
		if err := os.Remove(filepath.Join(dir, snapName(seq))); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// removeStaleTemps deletes temp files left behind by a crash mid-publish.
func removeStaleTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
