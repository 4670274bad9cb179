package coverage

// Signature returns the billboards covering coverage ID id, in ascending
// order, read back from u's inverted index.
func Signature(u *Universe, id int32) []int32 {
	idx := u.inverted()
	return idx.boards[idx.start[id]:idx.start[id+1]]
}
