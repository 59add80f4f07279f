// Command consumer is a second module wired to the fixture through replace,
// like the benchmark module is to the repository.
package main

import (
	"fmt"

	"fixture/internal/kit"
)

func main() { fmt.Println(kit.ForConsumer()) }
