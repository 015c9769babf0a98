package engine

import "repro/internal/tree"

// UpdateOp identifies one edit operation of Definition 7.1 (trees), a
// structural edit (subtree insert/delete/move, word range edits), or a
// word letter edit.
type UpdateOp uint8

const (
	// OpRelabel replaces the label of a tree node / word letter.
	OpRelabel UpdateOp = iota
	// OpDelete removes a tree leaf / word letter.
	OpDelete
	// OpInsertFirstChild inserts a new first child (trees only).
	OpInsertFirstChild
	// OpInsertRightSibling inserts a new right sibling (trees only).
	OpInsertRightSibling
	// OpInsertAfter inserts a letter after the given one (words only).
	OpInsertAfter
	// OpInsertBefore inserts a letter before the given one (words only).
	OpInsertBefore

	// Structural tree edits.

	// OpDeleteSubtree removes the whole subtree of Node (trees only).
	OpDeleteSubtree
	// OpMoveSubtreeFirstChild moves the subtree of Node to be the first
	// child subtree of Dest (trees only). The moved subtree keeps its
	// frozen boxes (TrunkDelta.Moved), so per-query repair is
	// O(log|T| + boundary), independent of the subtree size.
	OpMoveSubtreeFirstChild
	// OpMoveSubtreeRightSibling moves the subtree of Node to be the
	// right-sibling subtree of Dest (trees only).
	OpMoveSubtreeRightSibling
	// OpInsertSubtreeFirstChild grafts a copy of Fragment as the first
	// child subtree of Node (trees only).
	OpInsertSubtreeFirstChild
	// OpInsertSubtreeRightSibling grafts a copy of Fragment as the
	// right-sibling subtree of Node (trees only).
	OpInsertSubtreeRightSibling

	// Structural word edits (positions, not letter IDs).

	// OpMoveRange moves the K letters from position From after position
	// To of the remaining word, To = -1 prepending (words only). Letter
	// IDs are kept and the range travels as one shared piece, so
	// per-query repair is O(log n) regardless of K.
	OpMoveRange
	// OpInsertRange inserts Labels at position From (words only); the
	// fresh letters get consecutive IDs (see ApplyBatch).
	OpInsertRange
	// OpDeleteRange removes the K letters from position From (words
	// only).
	OpDeleteRange
	// OpConcat appends Labels at the end of the word (words only).
	OpConcat
)

// String returns the edit-language name of the operation.
func (op UpdateOp) String() string {
	switch op {
	case OpRelabel:
		return "relabel"
	case OpDelete:
		return "delete"
	case OpInsertFirstChild:
		return "insert"
	case OpInsertRightSibling:
		return "insertR"
	case OpInsertAfter:
		return "insertAfter"
	case OpInsertBefore:
		return "insertBefore"
	case OpDeleteSubtree:
		return "deleteSub"
	case OpMoveSubtreeFirstChild:
		return "moveSub"
	case OpMoveSubtreeRightSibling:
		return "moveSubR"
	case OpInsertSubtreeFirstChild:
		return "insertSub"
	case OpInsertSubtreeRightSibling:
		return "insertSubR"
	case OpMoveRange:
		return "moveRange"
	case OpInsertRange:
		return "insertRange"
	case OpDeleteRange:
		return "deleteRange"
	case OpConcat:
		return "concat"
	}
	return "?"
}

// Update is one edit of a batch. Node, Label serve the leaf edits; the
// structural tree edits add Dest (move destinations) and Fragment
// (grafted subtree); the word range edits use the positional fields
// From/K/To and Labels instead of IDs.
type Update struct {
	Op    UpdateOp
	Node  tree.NodeID
	Label tree.Label

	// Dest is the destination node of subtree moves.
	Dest tree.NodeID
	// Fragment is the grafted tree of subtree inserts (copied in under
	// fresh IDs; the fragment itself is not consumed).
	Fragment *tree.Unranked

	// From, K, To are the positional arguments of the word range edits:
	// source position, range length, destination position (To = -1
	// prepends; see forest.Word.MoveRange).
	From int
	K    int
	To   int
	// Labels carries the letters of OpInsertRange / OpConcat.
	Labels []tree.Label
}
