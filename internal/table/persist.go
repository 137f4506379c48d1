package table

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Persistent tables are crash consistent to the last Checkpoint through
// three mechanisms:
//
//  1. Block rewrites are copy-on-write (blockstore): a page referenced by
//     a durable catalog is never overwritten in place.
//  2. Freed pages are only reused after the next catalog commit
//     (FilePager deferred free), so "old" pages survive until no durable
//     catalog references them.
//  3. The catalog itself is dual-slot (ping-pong): checkpoints alternate
//     between two chains headed at pages 0 and 1, each carrying a
//     generation number and a CRC. Open picks the valid chain with the
//     highest generation, so a crash while writing one catalog leaves the
//     previous one intact.
//
// The catalog blob is:
//
//	magic "AVQCAT2\n" | generation uvarint | codec (1) | secondary kind (1)
//	| tuple count uvarint
//	| schema blob (length-prefixed relation.AppendBinary)
//	| secondary attr count uvarint + attrs
//	| block count uvarint + block page ids
//	| crc32 (4, over everything before it)
//
// Each catalog page is framed as:
//
//	next page id (4, InvalidPage at the tail) | chunk length (4) | chunk
//
// Mutations between checkpoints are volatile: a crash rolls the table back
// to the last Checkpoint (or Close). There is no write-ahead log; that is
// the documented durability contract.

var catalogMagic = []byte("AVQCAT2\n")

// catalogFrameOverhead is the per-page framing: next pointer and chunk length.
const catalogFrameOverhead = 8

// ErrClosed is returned by operations on a closed table.
var ErrClosed = errors.New("table: closed")

// catalogBlob serializes the table's metadata at the given generation.
func (t *Table) catalogBlob(generation uint64) []byte {
	blob := append([]byte(nil), catalogMagic...)
	blob = binary.AppendUvarint(blob, generation)
	blob = append(blob, byte(t.opts.Codec), byte(t.opts.SecondaryKind))
	blob = binary.AppendUvarint(blob, uint64(t.size))
	schemaBlob := t.schema.AppendBinary(nil)
	blob = binary.AppendUvarint(blob, uint64(len(schemaBlob)))
	blob = append(blob, schemaBlob...)
	blob = binary.AppendUvarint(blob, uint64(len(t.opts.SecondaryAttrs)))
	for _, a := range t.opts.SecondaryAttrs {
		blob = binary.AppendUvarint(blob, uint64(a))
	}
	blocks := t.store.Blocks()
	blob = binary.AppendUvarint(blob, uint64(len(blocks)))
	for _, id := range blocks {
		blob = binary.AppendUvarint(blob, uint64(id))
	}
	sum := crc32.ChecksumIEEE(blob)
	return binary.BigEndian.AppendUint32(blob, sum)
}

// catalogMeta is the parsed catalog.
type catalogMeta struct {
	generation    uint64
	codec         byte
	secondaryKind byte
	size          int
	schema        *relation.Schema
	secondary     []int
	blocks        []storage.PageID
}

// parseCatalog decodes and verifies a catalog blob.
func parseCatalog(blob []byte) (*catalogMeta, error) {
	if len(blob) < len(catalogMagic)+4 {
		return nil, errors.New("table: catalog truncated")
	}
	for i, b := range catalogMagic {
		if blob[i] != b {
			return nil, errors.New("table: not a table catalog")
		}
	}
	body := blob[:len(blob)-4]
	want := binary.BigEndian.Uint32(blob[len(blob)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("table: catalog checksum mismatch: %08x != %08x", got, want)
	}
	pos := len(catalogMagic)
	meta := &catalogMeta{}
	readUv := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, errors.New("table: catalog truncated")
		}
		pos += n
		return v, nil
	}
	gen, err := readUv()
	if err != nil {
		return nil, err
	}
	meta.generation = gen
	if pos+2 > len(body) {
		return nil, errors.New("table: catalog truncated")
	}
	meta.codec, meta.secondaryKind = body[pos], body[pos+1]
	pos += 2
	size, err := readUv()
	if err != nil {
		return nil, err
	}
	meta.size = int(size)
	schemaLen, err := readUv()
	if err != nil {
		return nil, err
	}
	if uint64(len(body)-pos) < schemaLen {
		return nil, errors.New("table: catalog truncated")
	}
	schema, n, err := relation.DecodeSchemaBinary(body[pos : pos+int(schemaLen)])
	if err != nil {
		return nil, err
	}
	if n != int(schemaLen) {
		return nil, errors.New("table: trailing bytes in catalog schema")
	}
	meta.schema = schema
	pos += int(schemaLen)
	nSec, err := readUv()
	if err != nil {
		return nil, err
	}
	if nSec > uint64(schema.NumAttrs()) {
		return nil, fmt.Errorf("table: catalog lists %d secondary attrs for %d attributes", nSec, schema.NumAttrs())
	}
	for i := uint64(0); i < nSec; i++ {
		a, err := readUv()
		if err != nil {
			return nil, err
		}
		meta.secondary = append(meta.secondary, int(a))
	}
	nBlocks, err := readUv()
	if err != nil {
		return nil, err
	}
	const maxBlocks = 1 << 31
	if nBlocks > maxBlocks {
		return nil, fmt.Errorf("table: implausible catalog block count %d", nBlocks)
	}
	for i := uint64(0); i < nBlocks; i++ {
		id, err := readUv()
		if err != nil {
			return nil, err
		}
		meta.blocks = append(meta.blocks, storage.PageID(id))
	}
	return meta, nil
}

// initCatalogHeads reserves pages 0 and 1 as the two catalog chain heads
// on a fresh persistent table.
func (t *Table) initCatalogHeads() error {
	for slot := 0; slot < 2; slot++ {
		frame, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		t.catalogChains[slot] = []storage.PageID{frame.ID()}
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint makes the current state durable: it writes the catalog into
// the inactive slot, flushes every dirty page, syncs the file, and only
// then releases pages freed since the previous checkpoint for reuse. A
// plain flush for in-memory tables.
func (t *Table) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpoint()
}

// checkpoint is Checkpoint's body, for callers already holding the
// exclusive lock (or still constructing the table).
func (t *Table) checkpoint() error {
	if t.closed {
		return ErrClosed
	}
	if !t.persistent() {
		return t.pool.Flush()
	}
	gen := t.generation + 1
	slot := int(gen & 1)
	blob := t.catalogBlob(gen)
	chunkCap := t.opts.PageSize - catalogFrameOverhead
	needed := (len(blob) + chunkCap - 1) / chunkCap
	if needed == 0 {
		needed = 1
	}
	chain := t.catalogChains[slot]
	for len(chain) < needed {
		frame, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		chain = append(chain, frame.ID())
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	for len(chain) > needed {
		last := chain[len(chain)-1]
		chain = chain[:len(chain)-1]
		if err := t.pool.Free(last); err != nil {
			return err
		}
	}
	t.catalogChains[slot] = chain
	dp, durable := t.pager.(storage.DurablePager)
	// Durability barrier 1: every data page the new catalog will reference
	// must be on stable storage before any catalog page naming it is
	// written. With a single combined flush+sync the device may persist the
	// catalog ahead of the data it points at — a reordered crash then
	// recovers a valid catalog of garbage pages.
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if durable {
		if err := dp.Sync(); err != nil {
			return err
		}
	}
	for i, id := range chain {
		frame, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		next := storage.InvalidPage
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		chunk := blob[i*chunkCap:]
		if len(chunk) > chunkCap {
			chunk = chunk[:chunkCap]
		}
		data := frame.Data()
		binary.BigEndian.PutUint32(data[0:4], uint32(next))
		binary.BigEndian.PutUint32(data[4:8], uint32(len(chunk)))
		copy(data[catalogFrameOverhead:], chunk)
		clear(data[catalogFrameOverhead+len(chunk):])
		frame.MarkDirty()
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	// Durability barrier 2: publish the catalog.
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if durable {
		if err := dp.Sync(); err != nil {
			return err
		}
	}
	// The new catalog is durable: pages freed before it can now be reused.
	t.generation = gen
	if durable {
		dp.ReleasePending()
	}
	// With the catalog published, everything the log holds is folded in:
	// rotate to a fresh segment at the new generation and delete the old
	// ones. Ordering matters — rotating first would leave a crash window
	// with neither the log nor the catalog holding recent mutations.
	if t.wal != nil {
		if err := t.wal.Rotate(gen); err != nil {
			return err
		}
	}
	return nil
}

// Close checkpoints (persistent tables), releases the buffer pool, and
// closes the pager. Further operations return errors.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.close()
}

// close is Close's body, for construction paths that fail before the
// table is shared.
func (t *Table) close() error {
	if t.closed {
		return nil
	}
	if t.persistent() {
		if err := t.checkpoint(); err != nil {
			return err
		}
	}
	t.closed = true
	if t.wal != nil {
		werr := t.wal.Close()
		t.wal = nil
		if werr != nil {
			return werr
		}
	}
	if err := t.pool.Close(); err != nil {
		return err
	}
	return t.pager.Close()
}

// Open loads a persistent table created by Create with a path. The
// schema, codec, block layout, and secondary-index configuration come from
// the newest valid catalog; options supply runtime knobs (pool size, disk
// model, observability). The indexes are rebuilt with one pass over the
// data blocks.
func Open(path string, options ...Option) (*Table, error) {
	if path == "" {
		return nil, errors.New("table: Open needs a path")
	}
	opts := Resolve(options)
	opts.Path = path
	if opts.FS == nil {
		opts.FS = storage.OSFS{}
	}
	fsys := opts.FS

	walDirExists := false
	if names, derr := fsys.ReadDir(walPath(path)); derr == nil {
		for _, name := range names {
			if wal.IsSegmentName(name) {
				walDirExists = true
				break
			}
		}
	}

	// A torn page file (partial tail page, or too short to hold the two
	// catalog heads) is corruption, not a usage error: report it as such,
	// with the offset where the intact prefix ends. Exception: in WAL mode
	// every page a durable catalog references was fsynced before that
	// catalog published, so a partial tail page can only be an
	// unacknowledged torn write from the crash — cut it and recover.
	// With an injected pager there is no page file to check: its writes
	// are whole-page atomic, so a torn tail cannot exist.
	if size, serr := fsys.Stat(path); opts.Pager == nil && serr == nil && size > 0 {
		ps := int64(opts.PageSize)
		if rem := size % ps; rem != 0 {
			if !walDirExists {
				return nil, fmt.Errorf("table: open %s: %w: torn page file, %d trailing bytes at offset %d",
					path, blockstore.ErrCorruptBlock, rem, size-rem)
			}
			f, ferr := fsys.OpenFile(path, os.O_RDWR)
			if ferr != nil {
				return nil, fmt.Errorf("table: open %s: %w", path, ferr)
			}
			terr := f.Truncate(size - rem)
			if terr == nil {
				terr = f.Sync()
			}
			cerr := f.Close()
			if terr != nil {
				return nil, fmt.Errorf("table: open %s: cut torn tail: %w", path, terr)
			}
			if cerr != nil {
				return nil, fmt.Errorf("table: open %s: cut torn tail: %w", path, cerr)
			}
			size -= rem
		}
		if size < 2*ps {
			return nil, fmt.Errorf("table: open %s: %w: page file truncated at offset %d (the two catalog heads need %d bytes)",
				path, blockstore.ErrCorruptBlock, size, 2*ps)
		}
	}

	// Bootstrap: read both catalog chains with a raw pager so the schema
	// and layout are known before the table shell exists. An injected
	// pager doubles as its own probe — it is reused, not closed, when the
	// shell is built around it.
	var probe storage.Pager
	if opts.Pager != nil {
		probe = opts.Pager
	} else {
		fp, err := storage.OpenFilePagerFS(fsys, path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		probe = fp
	}
	if probe.NumPages() < 2 {
		probe.Close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
		return nil, errors.New("table: file holds no catalog; use Create")
	}
	var (
		best   *catalogMeta
		chains [2][]storage.PageID
	)
	var firstErr error
	for slot := 0; slot < 2; slot++ {
		head := storage.PageID(slot)
		chains[slot] = []storage.PageID{head}
		blob, chain, err := readCatalogChain(probe, head, opts.PageSize)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		meta, err := parseCatalog(blob)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		chains[slot] = chain
		if best == nil || meta.generation > best.generation {
			best = meta
		}
	}
	var closeErr error
	if opts.Pager == nil {
		closeErr = probe.Close()
	}
	if best == nil {
		if firstErr == nil {
			firstErr = errors.New("table: no valid catalog")
		}
		return nil, fmt.Errorf("table: open %s: %w: %w", path, blockstore.ErrCorruptBlock, firstErr)
	}
	if closeErr != nil {
		return nil, closeErr
	}
	opts.Codec = core.Codec(best.codec)
	if !opts.Codec.Valid() {
		return nil, fmt.Errorf("table: catalog names unknown codec %d", best.codec)
	}
	opts.SecondaryKind = IndexKind(best.secondaryKind)
	opts.SecondaryAttrs = best.secondary

	t, err := newTableShell(best.schema, opts)
	if err != nil {
		return nil, err
	}
	t.catalogChains = chains
	t.generation = best.generation
	if err := t.store.Restore(best.blocks); err != nil {
		t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
		return nil, err
	}
	// Rebuild the in-memory indexes from the data blocks, capturing each
	// block's φ-fence as it streams by so the executor can prune without a
	// second decode pass.
	count := 0
	fences := make([]blockstore.Fence, 0, len(best.blocks))
	//avqlint:ignore ctxflow Open takes no ctx; the index rebuild is part of opening
	if err := t.store.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		t.primary.Insert(t.schema.EncodeTuple(nil, ts[0]), id)
		if len(t.secondary) > 0 {
			t.registerTuples(id, ts)
		}
		for _, tu := range ts {
			t.histAdd(tu)
		}
		fences = append(fences, blockstore.Fence{
			First: ts[0].Clone(),
			Last:  ts[len(ts)-1].Clone(),
			Count: len(ts),
		})
		count += len(ts)
		return true
	}); err != nil {
		t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
		return nil, err
	}
	if err := t.store.AdoptFences(fences); err != nil {
		t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
		return nil, err
	}
	if count != best.size {
		t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
		return nil, fmt.Errorf("table: catalog says %d tuples, blocks hold %d", best.size, count)
	}
	t.size = count
	// Return any file pages that neither a catalog chain nor a block claims
	// to the free list, so space orphaned by a crash is reused.
	referenced := make(map[storage.PageID]bool, len(best.blocks)+4)
	for _, id := range best.blocks {
		referenced[id] = true
	}
	for slot := 0; slot < 2; slot++ {
		for _, id := range t.catalogChains[slot] {
			referenced[id] = true
		}
	}
	for id := 0; id < t.pager.NumPages(); id++ {
		if !referenced[storage.PageID(id)] {
			if err := t.pager.Free(storage.PageID(id)); err != nil {
				t.close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
				return nil, err
			}
		}
	}
	// Pages orphaned by a crash are immediately reusable.
	if dp, ok := t.pager.(storage.DurablePager); ok {
		dp.ReleasePending()
	}
	// Attach and replay the WAL when asked for — or when a log directory
	// already exists, whatever the options say: ignoring it would silently
	// drop writes that were acknowledged as durable.
	if opts.Durability == DurabilityWAL || walDirExists {
		t.opts.Durability = DurabilityWAL
		if err := t.attachWALReplay(); err != nil {
			// Deliberately NOT t.close(): its checkpoint would publish the
			// partially replayed state and orphan the log. Tear down raw so
			// the catalog and log on disk stay exactly as found.
			t.closed = true
			t.pool.Close()  //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
			t.pager.Close() //avqlint:ignore droppederr best-effort cleanup on a path already returning the primary error
			return nil, err
		}
	}
	return t, nil
}

// readCatalogChain walks one catalog chain starting at head on a raw pager
// and returns the concatenated blob and the chain's page ids.
func readCatalogChain(pager storage.Pager, head storage.PageID, pageSize int) ([]byte, []storage.PageID, error) {
	var blob []byte
	var chain []storage.PageID
	seen := make(map[storage.PageID]bool)
	buf := make([]byte, pageSize)
	id := head
	for {
		if seen[id] {
			return nil, nil, errors.New("table: catalog chain contains a cycle")
		}
		seen[id] = true
		chain = append(chain, id)
		if err := pager.Read(id, buf); err != nil {
			return nil, nil, err
		}
		next := storage.PageID(binary.BigEndian.Uint32(buf[0:4]))
		chunkLen := int(binary.BigEndian.Uint32(buf[4:8]))
		if chunkLen > pageSize-catalogFrameOverhead {
			return nil, nil, fmt.Errorf("table: catalog chunk of %d bytes exceeds page", chunkLen)
		}
		blob = append(blob, buf[catalogFrameOverhead:catalogFrameOverhead+chunkLen]...)
		if next == storage.InvalidPage {
			return blob, chain, nil
		}
		id = next
	}
}
