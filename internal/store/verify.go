package store

// Verify recomputes the store's entire integrity chain: every record
// CRC, every segment's Merkle root, every seal footer, and every
// header-to-footer chain link from segment 1 on. It is strict — a torn tail that Open would repair is
// still reported, because Verify answers "is this store exactly what
// the writer synced", not "can I continue appending".
//
// The returned error for damaged bytes is a *CorruptionError naming the
// segment file and byte offset of the first check that failed; a single
// flipped byte anywhere in a sealed segment is caught (record bytes by
// the frame CRC, header bytes by the header CRC, seal bytes by the seal
// frame CRC or the recomputed root). A nil return means the full chain
// verified.
func Verify(dir string) error {
	_, err := walkChain(dir, func(l *link) error {
		if l.sealed {
			return l.verify()
		}
		st, err := l.scan(false, nil)
		if err == nil && st.torn != nil {
			return st.torn
		}
		return err
	})
	return err
}
