// Manifest handling: the MANIFEST file is the source of truth for which
// segment files belong to the log and in which logical order. Directory
// order cannot be: a compacted segment carries a *higher* file number
// than the newer data it supersedes, so lexical order does not equal
// logical order, and files can legitimately exist on disk (a
// compactor's not-yet-published outputs, a superseded generation not
// yet deleted) without being part of the log.
//
// Format — a short, line-oriented text file, CRC-sealed:
//
//	BQSMANIFEST 2
//	gen 7
//	seg seg-00000009.log
//	seg seg-00000003.log
//	crc 5f3a91c2
//
// The first line is magic + format version. "gen" is the generation
// number, incremented on every publish (open, rotation, compaction).
// Each "seg" line names one live segment file, base name only, in
// logical (oldest-first) order; the active segment is last. Older
// versions wrote two more fields after a sealed segment's name — "idx"
// (a block-index file beside it) and "sum=…" (a summary of its records);
// a parser accepts them, in that order, and ignores them, and a writable
// open republishes the list without them.
//
// The final "crc" line carries the CRC-32C of every preceding byte, so
// a damaged manifest is detected rather than silently reordering the
// log. Any other magic line — an older format version included — is
// rejected like any other structural defect.
//
// The manifest is always replaced atomically: written to MANIFEST.tmp,
// fsync'd, renamed over MANIFEST, directory fsync'd. A reader therefore
// sees either the old or the new generation, never a mixture — the
// invariant the compactor's crash recovery is built on.
package segmentlog

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

const (
	// manifestName is the manifest's file name inside the log directory.
	manifestName = "MANIFEST"
	// manifestTmpName is the staging name for atomic replacement.
	manifestTmpName = manifestName + tmpSuffix
	// manifestMagic is the first-line magic + format version.
	manifestMagic = "BQSMANIFEST 2"
	// maxManifestSegs bounds the number of seg lines a parser accepts, so
	// a corrupt or hostile manifest cannot drive unbounded allocation.
	maxManifestSegs = 1 << 20
)

// manifestSeg is one live segment as recorded in the MANIFEST.
type manifestSeg struct {
	Name string // canonical segment file base name
}

// manifest is the decoded MANIFEST content.
type manifest struct {
	Gen  uint64        // generation number, bumped on every publish
	Segs []manifestSeg // live segments, logical (oldest-first) order
}

// segName formats the canonical file name for segment sequence number n.
func segName(n uint64) string { return fmt.Sprintf("seg-%08d.log", n) }

// parseSegName extracts the sequence number from a canonical segment
// file name; ok is false for anything else (including path separators,
// so a hostile manifest cannot point outside the log directory).
func parseSegName(name string) (uint64, bool) {
	const pre, suf = "seg-", ".log"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	digits := name[len(pre) : len(name)-len(suf)]
	if len(digits) < 8 { // canonical names zero-pad to 8; longer is allowed for huge seqs
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	// Round-trip check rejects non-canonical spellings ("seg-1.log",
	// leading-zero overlong forms) so format(parse(x)) is the identity.
	if segName(n) != name {
		return 0, false
	}
	return n, true
}

// formatManifest renders m in the canonical on-disk form, including the
// trailing CRC line.
func formatManifest(m manifest) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\ngen %d\n", manifestMagic, m.Gen)
	for _, s := range m.Segs {
		fmt.Fprintf(&b, "seg %s\n", s.Name)
	}
	return sealText(b.Bytes())
}

// parseManifest decodes and validates manifest bytes. Every structural
// defect — wrong magic, bad field, duplicate or non-canonical segment
// name, missing or mismatching CRC, trailing bytes — is an error:
// a manifest is small and fully rewritten on every change, so unlike a
// segment file there is no "valid prefix" to salvage.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	covered, err := unsealText("manifest", data)
	if err != nil {
		return m, err
	}
	sc := bufio.NewScanner(bytes.NewReader(covered))
	if !sc.Scan() {
		return m, fmt.Errorf("%w: manifest: empty", ErrCorrupt)
	}
	if sc.Text() != manifestMagic {
		return m, fmt.Errorf("%w: manifest: bad magic line %q", ErrCorrupt, sc.Text())
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "gen ") {
		return m, fmt.Errorf("%w: manifest: missing gen line", ErrCorrupt)
	}
	gen, err := strconv.ParseUint(strings.TrimPrefix(sc.Text(), "gen "), 10, 64)
	if err != nil {
		return m, fmt.Errorf("%w: manifest: bad gen value", ErrCorrupt)
	}
	m.Gen = gen
	seen := make(map[string]bool)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "seg ")
		if !ok {
			return m, fmt.Errorf("%w: manifest: unexpected line %q", ErrCorrupt, line)
		}
		fields := strings.Split(rest, " ")
		var ms manifestSeg
		ms.Name = fields[0]
		if _, ok := parseSegName(ms.Name); !ok {
			return m, fmt.Errorf("%w: manifest: bad segment name %q", ErrCorrupt, ms.Name)
		}
		if seen[ms.Name] {
			return m, fmt.Errorf("%w: manifest: duplicate segment %q", ErrCorrupt, ms.Name)
		}
		// The legacy fields, in the order they were written: "idx", then
		// "sum=...". Nothing reads them.
		i := 1
		if i < len(fields) && fields[i] == "idx" {
			i++
		}
		if i < len(fields) && strings.HasPrefix(fields[i], "sum=") {
			i++
		}
		if i != len(fields) {
			return m, fmt.Errorf("%w: manifest: unexpected field %q", ErrCorrupt, fields[i])
		}
		if len(m.Segs) >= maxManifestSegs {
			return m, fmt.Errorf("%w: manifest: too many segments", ErrCorrupt)
		}
		seen[ms.Name] = true
		m.Segs = append(m.Segs, ms)
	}
	if err := sc.Err(); err != nil {
		return m, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	return m, nil
}

// readManifest loads dir's MANIFEST. found is false when none exists; a
// present-but-invalid manifest is an error — guessing at segment order
// risks serving records out of order.
func readManifest(fsys vfs.FS, dir string) (m manifest, found bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("segmentlog: %w", err)
	}
	m, err = parseManifest(data)
	return m, true, err
}

// writeManifest atomically replaces dir's MANIFEST with m (publishFile).
func writeManifest(fsys vfs.FS, dir string, m manifest) error {
	return publishFile(fsys, "manifest", dir, manifestName, formatManifest(m))
}

// writeManifestLocked atomically publishes the current live segment list
// under the next generation number. Callers hold mu (or are inside
// openShardLog).
func (l *shardLog) writeManifestLocked() error {
	m := manifest{Gen: l.gen + 1, Segs: make([]manifestSeg, len(l.segs))}
	for i, s := range l.segs {
		m.Segs[i].Name = filepath.Base(s.path)
	}
	if err := writeManifest(l.fs, l.dir, m); err != nil {
		return err
	}
	l.gen = m.Gen
	return nil
}
