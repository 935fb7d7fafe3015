package graph

import (
	"fmt"
	"sort"
	"strings"

	"gqs/internal/value"
)

// ToCypher renders the graph as a single CREATE statement that rebuilds
// it, the way the paper's initializer loads a random graph into the GDB
// under test. Node variables are named _n<id>.
func (g *Graph) ToCypher() string {
	var parts []string
	for _, id := range g.NodeIDs() {
		props, _ := g.Props(id, false)
		parts = append(parts, fmt.Sprintf("(_n%d%s %s)", id, labelString(g.Node(id).Labels), propString(props)))
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		props, _ := g.Props(id, true)
		parts = append(parts, fmt.Sprintf("(_n%d)-[:%s %s]->(_n%d)", r.Start, r.Type, propString(props), r.End))
	}
	if len(parts) == 0 {
		return ""
	}
	return "CREATE " + strings.Join(parts, ", ")
}

func labelString(labels []string) string {
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteByte(':')
		sb.WriteString(l)
	}
	return sb.String()
}

func propString(props map[string]value.Value) string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		sb.WriteString(": ")
		sb.WriteString(props[k].String())
	}
	sb.WriteByte('}')
	return sb.String()
}
