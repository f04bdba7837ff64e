package recover

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStore is the file-backed CheckpointStore for the distributed (netmpi)
// runtime: one directory per job, one file per completed cell, written
// atomically (temp file + rename) so a crash mid-write never yields a
// half-cell. Corrupt or truncated files are skipped on Load — a lost cell
// costs one redone DGEMM, never a wrong result.
//
// Cell file format (little-endian):
//
//	magic "SGC2" | uint32 row | uint32 col | uint32 h | uint32 w |
//	h*w float64 payload | uint32 CRC32C over everything before it
//
// The footer closes the restore-from-rot hole: the length check catches
// truncation, but a bit flipped in place (disk rot, a torn sector rewrite)
// would otherwise decode cleanly and be restored as ground truth — silently
// wrong C cells with no collective left to catch them. A failed CRC demotes
// the cell to "never checkpointed": one redone DGEMM, never a restored lie.
// Any other magic, including the footerless "SGC1" of earlier builds, is
// skipped the same way.
type FileStore struct {
	dir string
}

const fileMagic = "SGC2"

// castagnoli matches the netmpi frame CRC — one polynomial for every
// integrity check in the system.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewFileStore creates (if needed) and uses dir as the checkpoint root.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("recover: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: checkpoint dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// jobDir sanitizes the job id into a directory name.
func (s *FileStore) jobDir(jobID string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, jobID)
	if clean == "" {
		clean = "job"
	}
	return filepath.Join(s.dir, clean)
}

func encodeCell(cell Cell) []byte {
	buf := make([]byte, len(fileMagic)+16+8*len(cell.Data)+4)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(cell.Row))
	binary.LittleEndian.PutUint32(buf[8:], uint32(cell.Col))
	binary.LittleEndian.PutUint32(buf[12:], uint32(cell.H))
	binary.LittleEndian.PutUint32(buf[16:], uint32(cell.W))
	for i, v := range cell.Data {
		binary.LittleEndian.PutUint64(buf[20+8*i:], math.Float64bits(v))
	}
	sum := crc32.Checksum(buf[:len(buf)-4], castagnoli)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf
}

func decodeCell(buf []byte) (Cell, error) {
	if len(buf) < 24 || string(buf[:4]) != fileMagic {
		return Cell{}, fmt.Errorf("recover: bad cell header (%d bytes)", len(buf))
	}
	// The footer is verified before any field is trusted: a flipped bit
	// anywhere — header or payload — must read as "no cell".
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.Checksum(buf[:len(buf)-4], castagnoli); got != want {
		return Cell{}, fmt.Errorf("recover: cell CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	buf = buf[:len(buf)-4]
	cell := Cell{
		Row: int(binary.LittleEndian.Uint32(buf[4:])),
		Col: int(binary.LittleEndian.Uint32(buf[8:])),
		H:   int(binary.LittleEndian.Uint32(buf[12:])),
		W:   int(binary.LittleEndian.Uint32(buf[16:])),
	}
	// The element count comes from the buffer, never from a product of the
	// header's fields: 8·h·w of two 32-bit values can wrap past any length
	// check.
	payload := len(buf) - 20
	count := payload / 8
	if cell.H <= 0 || cell.W <= 0 || payload%8 != 0 || count%cell.W != 0 || count/cell.W != cell.H {
		return Cell{}, fmt.Errorf("recover: cell %s payload truncated (%d bytes)", cell.Key(), len(buf))
	}
	cell.Data = make([]float64, count)
	for i := range cell.Data {
		cell.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[20+8*i:]))
	}
	return cell, cell.validate()
}

// Save implements CheckpointStore.
func (s *FileStore) Save(jobID string, cell Cell) error {
	if err := cell.validate(); err != nil {
		return err
	}
	dir := s.jobDir(jobID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("recover: job dir: %w", err)
	}
	final := filepath.Join(dir, cell.Key()+".ckpt")
	tmp, err := os.CreateTemp(dir, cell.Key()+".tmp-*")
	if err != nil {
		return fmt.Errorf("recover: checkpoint temp: %w", err)
	}
	if _, err := tmp.Write(encodeCell(cell)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("recover: checkpoint write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("recover: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("recover: checkpoint rename: %w", err)
	}
	return nil
}

// Load implements CheckpointStore. Unreadable or corrupt cell files are
// skipped, not fatal.
func (s *FileStore) Load(jobID string) ([]Cell, error) {
	entries, err := os.ReadDir(s.jobDir(jobID))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recover: checkpoint scan: %w", err)
	}
	var cells []Cell
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(s.jobDir(jobID), e.Name()))
		if err != nil {
			continue
		}
		cell, err := decodeCell(buf)
		if err != nil {
			continue
		}
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
	return cells, nil
}

// Clear implements CheckpointStore.
func (s *FileStore) Clear(jobID string) error {
	return os.RemoveAll(s.jobDir(jobID))
}
