// Second fixture file: a key-only range that appends is flagged the
// same in a file with no import block.
package a

func Collect(m map[int]string) []string {
	var out []string
	for k := range m { // want `map iteration order is random`
		out = append(out, m[k])
	}
	return out
}
