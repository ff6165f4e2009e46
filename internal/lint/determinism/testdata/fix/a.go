// Fixture for key-only map ranges with order-sensitive effects: a
// range that prints is flagged in a file with an import block.
package a

import (
	"fmt"
)

func Emit(m map[string]int) {
	for k := range m { // want `map iteration order is random`
		fmt.Println(k, m[k])
	}
}
