package dsl

import "unicode"

// Lexer tokenizes CHOPPER source text. Comments run from "//" to end of
// line; whitespace is insignificant.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{l.line, l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

var keywords = map[string]TokKind{
	"node": TokNode, "returns": TokReturn, "vars": TokVars,
	"let": TokLet, "tel": TokTel,
	"forall": TokForall, "in": TokIn, "const": TokConst,
}

// Next returns the next token, or an error for an unrecognized byte.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.peek()

	// Token texts are slices of the source, not copies.
	from := l.off
	switch {
	case isIdentStart(c):
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[from:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil

	case unicode.IsDigit(rune(c)):
		l.advance()
		if c == '0' && (l.peek() == 'x' || l.peek() == 'X') {
			l.advance()
			for l.off < len(l.src) && isHex(l.peek()) {
				l.advance()
			}
			if l.off-from == 2 {
				return Token{}, errf(start, "malformed hex literal")
			}
		} else {
			for l.off < len(l.src) && (unicode.IsDigit(rune(l.peek())) || l.peek() == '_') {
				l.advance()
			}
		}
		return Token{Kind: TokInt, Text: l.src[from:l.off], Pos: start}, nil
	}

	two := func(k TokKind) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: k, Text: l.src[from:l.off], Pos: start}, nil
	}
	one := func(k TokKind) (Token, error) {
		l.advance()
		return Token{Kind: k, Text: l.src[from:l.off], Pos: start}, nil
	}

	switch c {
	case '[':
		return one(TokLBracket)
	case ']':
		return one(TokRBracket)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '.':
		if l.peek2() == '.' {
			return two(TokDotDot)
		}
		return Token{}, errf(start, "unexpected '.' (use '..' for ranges)")
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case ',':
		return one(TokComma)
	case ';':
		return one(TokSemi)
	case ':':
		return one(TokColon)
	case '+':
		return one(TokPlus)
	case '-':
		return one(TokMinus)
	case '*':
		return one(TokStar)
	case '&':
		return one(TokAmp)
	case '|':
		return one(TokPipe)
	case '^':
		return one(TokCaret)
	case '~':
		return one(TokTilde)
	case '?':
		return one(TokQuestion)
	case '@':
		return one(TokAt)
	case '=':
		if l.peek2() == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '!':
		if l.peek2() == '=' {
			return two(TokNe)
		}
		return Token{}, errf(start, "unexpected '!' (use '!=' or '~')")
	case '<':
		switch l.peek2() {
		case '<':
			return two(TokShl)
		case '=':
			return two(TokLe)
		}
		return one(TokLt)
	case '>':
		switch l.peek2() {
		case '>':
			return two(TokShr)
		case '=':
			return two(TokGe)
		}
		return one(TokGt)
	}
	return Token{}, errf(start, "unexpected character %q", string(c))
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '_'
}

// LexAll tokenizes the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
