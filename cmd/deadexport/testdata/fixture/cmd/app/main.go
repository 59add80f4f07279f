// Command app is the fixture module's own caller of package kit.
package main

import (
	"fmt"

	"fixture/internal/kit"
)

func main() {
	var s kit.Shape = kit.Square{Side: 2}
	fmt.Println(kit.Used(), s.Area(), kit.NewErr())
}
