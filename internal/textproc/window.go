package textproc

// Windows iterates over all sliding windows of size w over the term
// sequence terms, invoking fn with each window slice. The final windows
// shorter than w (when the document itself is shorter) collapse to a single
// call with the whole document, matching the paper's fixed-size-window
// textual context: term sets are keys only if all their terms co-occur
// within at least one window of size w.
//
// The slice passed to fn aliases terms and must not be retained.
func Windows(terms []string, w int, fn func(window []string)) {
	if w <= 0 || len(terms) == 0 {
		return
	}
	if len(terms) <= w {
		fn(terms)
		return
	}
	for i := 0; i+w <= len(terms); i++ {
		fn(terms[i : i+w])
	}
}
