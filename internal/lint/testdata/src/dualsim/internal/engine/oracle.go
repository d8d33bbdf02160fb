package engine

// Stand-ins for the executor and the two oracle constructors the
// layering fixtures reference.

func NewVolcano() int   { return 0 }
func NewIndexNL() int   { return 1 }
func NewReference() int { return 2 }
