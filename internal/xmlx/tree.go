package xmlx

import (
	"fmt"
	"strings"
)

// Node is an element in a parsed XML tree.
type Node struct {
	Name     string
	Attrs    []Attr
	Text     string // concatenated character data directly under this node
	Children []*Node
}

// Parse builds a tree from a whole document using the event scanner.
func Parse(src []byte) (*Node, error) {
	sc := NewScanner(src)
	var root *Node
	var stack []*Node
	for {
		tok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case KindEOF:
			if root == nil {
				return nil, fmt.Errorf("%w: empty document", ErrSyntax)
			}
			return root, nil
		case KindStart:
			n := &Node{Name: tok.Name, Attrs: tok.Attrs}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("%w: multiple document elements", ErrSyntax)
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case KindEnd:
			stack = stack[:len(stack)-1]
		case KindText:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += tok.Text
			}
		}
	}
}

// Attr returns the named attribute value, or "".
func (n *Node) Attr(name string) string {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// Child returns the first direct child with the given name (namespace
// prefixes are ignored), or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if localName(c.Name) == name {
			return c
		}
	}
	return nil
}

// ChildText returns the trimmed text of the named direct child, or "".
func (n *Node) ChildText(name string) string {
	c := n.Child(name)
	if c == nil {
		return ""
	}
	return strings.TrimSpace(c.Text)
}

// Find returns the first descendant (depth-first, including n itself) with
// the given local name, or nil.
func (n *Node) Find(name string) *Node {
	if localName(n.Name) == name {
		return n
	}
	for _, c := range n.Children {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// FindAll returns every descendant (including n itself) with the given
// local name, in document order.
func (n *Node) FindAll(name string) []*Node {
	var out []*Node
	n.walk(func(c *Node) {
		if localName(c.Name) == name {
			out = append(out, c)
		}
	})
	return out
}

func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// Marshal renders the tree back to XML with minimal formatting.
func (n *Node) Marshal() []byte {
	var b strings.Builder
	n.marshalTo(&b)
	return []byte(b.String())
}

func (n *Node) marshalTo(b *strings.Builder) {
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, a := range n.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escapeTo(b, a.Value)
		b.WriteByte('"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	escapeTo(b, n.Text)
	for _, c := range n.Children {
		c.marshalTo(b)
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
}

// localName strips any namespace prefix.
func localName(name string) string {
	if _, local, ok := strings.Cut(name, ":"); ok {
		return local
	}
	return name
}
