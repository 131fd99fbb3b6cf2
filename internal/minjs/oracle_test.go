package minjs

// The reference tree-walker. It evaluates the AST directly, with no
// compilation step, and exists only for the tests: the bytecode VM is the
// one production engine, and the differential suites (vm_test.go and the
// scan-parity test) demand that it match this oracle value for value, step
// for step and property access for property access. export_test.go
// installs it through the package's engine seam.

// treeWalker is the oracle engine.
type treeWalker struct{}

// runTop mirrors the VM's top-level runner: hoist at global scope, run the
// statements under one frame, return the last completion value. The caller
// (Interp.runTop) has already applied the step-budget rule.
func (treeWalker) runTop(it *Interp, prog *Program, fnName string) (Value, error) {
	frame := it.pushFrame(Frame{FnName: fnName, Script: prog.Name, Line: 1})
	defer it.popFrame()
	it.hoist(prog.Body, it.root)
	var last Value
	for _, st := range prog.Body {
		v, err := it.evalStmt(st, it.root, frame)
		if err != nil {
			if rs, ok := err.(*returnSignal); ok {
				return rs.val, nil
			}
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

// call runs a script function's body. The caller (CallFunction) has already
// performed the depth check and resolved an arrow or bound this.
func (treeWalker) call(it *Interp, lit *FuncLit, fn *Object, this Value, args []Value) (Value, error) {
	sc := it.newScopeIn(fn.fnd.Env, len(lit.Params)+2)
	for i, p := range lit.Params {
		if i < len(args) {
			sc.declare(p, args[i])
		} else {
			sc.declare(p, Undefined())
		}
	}
	if lit.UsesArguments {
		sc.declare("arguments", ObjectValue(it.NewArrayP(args...)))
	}
	frame := it.pushFrame(Frame{FnName: lit.Name, Script: lit.Script, Line: lit.Line})
	defer it.popFrame()
	it.hoist(lit.Body, sc)
	savedThis := it.curThis
	it.curThis = this
	defer func() { it.curThis = savedThis }()
	for _, st := range lit.Body {
		if _, err := it.evalStmt(st, sc, frame); err != nil {
			if rs, ok := err.(*returnSignal); ok {
				return rs.val, nil
			}
			return Undefined(), err
		}
	}
	return Undefined(), nil
}

// returnSignal carries a return value up through evalStmt as an error.
type returnSignal struct{ val Value }

func (*returnSignal) Error() string { return "minjs: return" }

// step charges one unit of the step budget, like the VM's opStmt/opStep.
func (it *Interp) step() error {
	it.steps++
	limit := it.stepLimit()
	if it.steps > limit {
		return &InterruptError{Reason: "step limit exceeded"}
	}
	return nil
}

// hoist pre-declares function declarations in a statement list.
func (it *Interp) hoist(body []Node, sc *Scope) {
	for _, st := range body {
		if fd, ok := st.(*FuncDecl); ok {
			fn := it.makeFunction(fd.Fn, sc)
			sc.declare(fd.Fn.Name, ObjectValue(fn))
		}
	}
}

// evalStmt evaluates one statement. Non-normal completions surface as errors
// (errBreak, errContinue, *returnSignal, *Throw, *InterruptError).
func (it *Interp) evalStmt(n Node, sc *Scope, frame *Frame) (Value, error) {
	if err := it.step(); err != nil {
		return Undefined(), err
	}
	frame.Line = n.nodeLine()
	switch st := n.(type) {
	case *VarDecl:
		for i, name := range st.Names {
			v := Undefined()
			if st.Inits[i] != nil {
				var err error
				v, err = it.evalExpr(st.Inits[i], sc, frame)
				if err != nil {
					return Undefined(), err
				}
			}
			sc.declare(name, v)
		}
		return Undefined(), nil

	case *ExprStmt:
		return it.evalExpr(st.X, sc, frame)

	case *FuncDecl:
		return Undefined(), nil // hoisted

	case *BlockStmt:
		inner := sc
		if st.NeedsScope {
			inner = NewScope(sc)
			it.hoist(st.Body, inner)
		}
		var last Value
		for _, s := range st.Body {
			v, err := it.evalStmt(s, inner, frame)
			if err != nil {
				return Undefined(), err
			}
			last = v
		}
		return last, nil

	case *IfStmt:
		cond, err := it.evalExpr(st.Cond, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		if cond.Truthy() {
			return it.evalStmt(st.Then, sc, frame)
		}
		if st.Else != nil {
			return it.evalStmt(st.Else, sc, frame)
		}
		return Undefined(), nil

	case *WhileStmt:
		for {
			cond, err := it.evalExpr(st.Cond, sc, frame)
			if err != nil {
				return Undefined(), err
			}
			if !cond.Truthy() {
				return Undefined(), nil
			}
			if _, err := it.evalStmt(st.Body, sc, frame); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err == errContinue {
					continue
				}
				return Undefined(), err
			}
		}

	case *DoWhileStmt:
		for {
			if _, err := it.evalStmt(st.Body, sc, frame); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			cond, err := it.evalExpr(st.Cond, sc, frame)
			if err != nil {
				return Undefined(), err
			}
			if !cond.Truthy() {
				return Undefined(), nil
			}
		}

	case *ForStmt:
		inner := NewScope(sc)
		if st.Init != nil {
			if _, err := it.evalStmt(st.Init, inner, frame); err != nil {
				return Undefined(), err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := it.evalExpr(st.Cond, inner, frame)
				if err != nil {
					return Undefined(), err
				}
				if !cond.Truthy() {
					return Undefined(), nil
				}
			}
			if _, err := it.evalStmt(st.Body, inner, frame); err != nil {
				if err == errBreak {
					return Undefined(), nil
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if st.Post != nil {
				if _, err := it.evalExpr(st.Post, inner, frame); err != nil {
					return Undefined(), err
				}
			}
		}

	case *ForInStmt:
		objV, err := it.evalExpr(st.Obj, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		inner := NewScope(sc)
		assign := func(v Value) {
			if st.Decl != "" {
				inner.declare(st.Name, v)
			} else if slot := lookupSlot(inner, st.Name); slot != nil {
				*slot = v
			} else if it.Global.Has(st.Name) {
				if err := it.setMember(it.Global, st.Name, v); err == nil {
					return
				}
			} else {
				inner.declare(st.Name, v)
			}
		}
		runBody := func() (stop bool, err error) {
			if _, err := it.evalStmt(st.Body, inner, frame); err != nil {
				if err == errBreak {
					return true, nil
				}
				if err != errContinue {
					return false, err
				}
			}
			return false, nil
		}
		if st.Of {
			// for…of: arrays and strings
			switch {
			case objV.IsObject() && objV.Obj.Class == "Array":
				for _, el := range objV.Obj.Elems {
					assign(el)
					stop, err := runBody()
					if err != nil || stop {
						return Undefined(), err
					}
				}
			case objV.Kind == KindString:
				for _, r := range objV.Str {
					assign(String(string(r)))
					stop, err := runBody()
					if err != nil || stop {
						return Undefined(), err
					}
				}
			case objV.IsNullish():
				return Undefined(), it.ThrowError("TypeError", "cannot iterate %s", objV.TypeOf())
			}
			return Undefined(), nil
		}
		if !objV.IsObject() {
			return Undefined(), nil // for…in over primitives iterates nothing here
		}
		for _, key := range objV.Obj.EnumerateAll() {
			assign(String(key))
			stop, err := runBody()
			if err != nil || stop {
				return Undefined(), err
			}
		}
		return Undefined(), nil

	case *ReturnStmt:
		v := Undefined()
		if st.X != nil {
			var err error
			v, err = it.evalExpr(st.X, sc, frame)
			if err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), &returnSignal{v}

	case *BreakStmt:
		return Undefined(), errBreak
	case *ContinueStmt:
		return Undefined(), errContinue

	case *ThrowStmt:
		v, err := it.evalExpr(st.X, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		return Undefined(), &Throw{Value: v, Stack: it.CaptureStack()}

	case *TryStmt:
		_, err := it.evalStmt(st.Body, sc, frame)
		if thr, ok := err.(*Throw); ok && st.Catch != nil {
			inner := NewScope(sc)
			if st.CatchName != "" {
				inner.declare(st.CatchName, thr.Value)
			}
			_, err = it.evalStmt(st.Catch, inner, frame)
		}
		if st.Finally != nil {
			if _, ferr := it.evalStmt(st.Finally, sc, frame); ferr != nil {
				return Undefined(), ferr // finally overrides pending completion
			}
		}
		if err != nil {
			return Undefined(), err
		}
		return Undefined(), nil

	case *SwitchStmt:
		tag, err := it.evalExpr(st.Tag, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		inner := NewScope(sc)
		matched := -1
		for i, c := range st.Cases {
			tv, err := it.evalExpr(c.Test, inner, frame)
			if err != nil {
				return Undefined(), err
			}
			if StrictEquals(tag, tv) {
				matched = i
				break
			}
		}
		runFrom := func(start int, includeDefaultAt int) error {
			for i := start; i < len(st.Cases); i++ {
				if includeDefaultAt == i && st.HasDef {
					for _, s := range st.Default {
						if _, err := it.evalStmt(s, inner, frame); err != nil {
							return err
						}
					}
				}
				for _, s := range st.Cases[i].Body {
					if _, err := it.evalStmt(s, inner, frame); err != nil {
						return err
					}
				}
			}
			if includeDefaultAt >= len(st.Cases) && st.HasDef {
				for _, s := range st.Default {
					if _, err := it.evalStmt(s, inner, frame); err != nil {
						return err
					}
				}
			}
			return nil
		}
		var rerr error
		if matched >= 0 {
			rerr = runFrom(matched, -1)
		} else if st.HasDef {
			rerr = runFrom(st.DefPos, st.DefPos)
		}
		if rerr == errBreak {
			rerr = nil
		}
		return Undefined(), rerr
	}
	return Undefined(), it.ThrowError("InternalError", "unknown statement node %T", n)
}

// evalExpr evaluates an expression node.
func (it *Interp) evalExpr(n Node, sc *Scope, frame *Frame) (Value, error) {
	if err := it.step(); err != nil {
		return Undefined(), err
	}
	switch x := n.(type) {
	case *Literal:
		return x.Val, nil

	case *Ident:
		return it.lookupIdent(x.Name, sc)

	case *ThisExpr:
		if it.curThis.Kind == KindUndefined {
			return ObjectValue(it.Global), nil
		}
		return it.curThis, nil

	case *ArrayLit:
		elems := make([]Value, 0, len(x.Elems))
		for _, e := range x.Elems {
			v, err := it.evalExpr(e, sc, frame)
			if err != nil {
				return Undefined(), err
			}
			elems = append(elems, v)
		}
		return ObjectValue(it.NewArrayP(elems...)), nil

	case *ObjectLit:
		o := it.NewObjectP()
		for i, k := range x.Keys {
			v, err := it.evalExpr(x.Vals[i], sc, frame)
			if err != nil {
				return Undefined(), err
			}
			o.Set(k, v)
		}
		return ObjectValue(o), nil

	case *FuncLit:
		fn := it.makeFunction(x, sc)
		if x.Arrow {
			this := it.curThis
			if this.Kind == KindUndefined {
				this = ObjectValue(it.Global)
			}
			fn.fnd.arrowThis = &this
		}
		return ObjectValue(fn), nil

	case *UnaryExpr:
		return it.evalUnary(x, sc, frame)

	case *PostfixExpr:
		old, err := it.evalExpr(x.X, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		n := old.ToNumber()
		var nv Value
		if x.Op == "++" {
			nv = Number(n + 1)
		} else {
			nv = Number(n - 1)
		}
		if err := it.assignTo(x.X, nv, sc, frame); err != nil {
			return Undefined(), err
		}
		return Number(n), nil

	case *BinaryExpr:
		return it.evalBinary(x, sc, frame)

	case *LogicalExpr:
		l, err := it.evalExpr(x.L, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		switch x.Op {
		case "&&":
			if !l.Truthy() {
				return l, nil
			}
		case "||":
			if l.Truthy() {
				return l, nil
			}
		case "??":
			if !l.IsNullish() {
				return l, nil
			}
		}
		return it.evalExpr(x.R, sc, frame)

	case *CondExpr:
		c, err := it.evalExpr(x.Cond, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		if c.Truthy() {
			return it.evalExpr(x.Then, sc, frame)
		}
		return it.evalExpr(x.Else, sc, frame)

	case *AssignExpr:
		var val Value
		var err error
		if x.Op == "=" {
			val, err = it.evalExpr(x.Val, sc, frame)
			if err != nil {
				return Undefined(), err
			}
		} else {
			old, err := it.evalExpr(x.Target, sc, frame)
			if err != nil {
				return Undefined(), err
			}
			rhs, err := it.evalExpr(x.Val, sc, frame)
			if err != nil {
				return Undefined(), err
			}
			val, err = it.applyBinary(x.Op[:len(x.Op)-1], old, rhs)
			if err != nil {
				return Undefined(), err
			}
		}
		if err := it.assignTo(x.Target, val, sc, frame); err != nil {
			return Undefined(), err
		}
		return val, nil

	case *MemberExpr:
		objV, key, err := it.evalMemberOperands(x, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		return it.GetMember(objV, key)

	case *CallExpr:
		return it.evalCall(x, sc, frame)

	case *NewExpr:
		cv, err := it.evalExpr(x.Ctor, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		if !cv.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "not a constructor")
		}
		args, err := it.evalArgs(x.Args, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		return it.Construct(cv.Obj, args)
	}
	return Undefined(), it.ThrowError("InternalError", "unknown expression node %T", n)
}

func (it *Interp) evalArgs(nodes []Node, sc *Scope, frame *Frame) ([]Value, error) {
	args := make([]Value, 0, len(nodes))
	for _, a := range nodes {
		v, err := it.evalExpr(a, sc, frame)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func (it *Interp) evalMemberOperands(x *MemberExpr, sc *Scope, frame *Frame) (Value, string, error) {
	objV, err := it.evalExpr(x.Obj, sc, frame)
	if err != nil {
		return Undefined(), "", err
	}
	key := x.Name
	if x.Computed {
		kv, err := it.evalExpr(x.Index, sc, frame)
		if err != nil {
			return Undefined(), "", err
		}
		key = kv.ToString()
	}
	return objV, key, nil
}

func (it *Interp) evalCall(x *CallExpr, sc *Scope, frame *Frame) (Value, error) {
	// method call: evaluate receiver once
	if m, ok := x.Fn.(*MemberExpr); ok {
		objV, key, err := it.evalMemberOperands(m, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		fnV, err := it.GetMember(objV, key)
		if err != nil {
			return Undefined(), err
		}
		if !fnV.IsFunction() {
			return Undefined(), it.ThrowError("TypeError", "%s.%s is not a function", objV.TypeOf(), key)
		}
		args, err := it.evalArgs(x.Args, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		return it.CallFunction(fnV.Obj, objV, args)
	}
	fnV, err := it.evalExpr(x.Fn, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	if !fnV.IsFunction() {
		name := "value"
		if id, ok := x.Fn.(*Ident); ok {
			name = id.Name
		}
		return Undefined(), it.ThrowError("TypeError", "%s is not a function", name)
	}
	args, err := it.evalArgs(x.Args, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	return it.CallFunction(fnV.Obj, ObjectValue(it.Global), args)
}

func (it *Interp) evalUnary(x *UnaryExpr, sc *Scope, frame *Frame) (Value, error) {
	switch x.Op {
	case "typeof":
		// typeof on an unresolvable identifier yields "undefined" (no throw)
		if id, ok := x.X.(*Ident); ok {
			if v, err := it.lookupIdent(id.Name, sc); err == nil {
				return String(v.TypeOf()), nil
			}
			return String("undefined"), nil
		}
		v, err := it.evalExpr(x.X, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		return String(v.TypeOf()), nil

	case "delete":
		m, ok := x.X.(*MemberExpr)
		if !ok {
			return Boolean(true), nil
		}
		objV, key, err := it.evalMemberOperands(m, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		if !objV.IsObject() {
			return Boolean(true), nil
		}
		return Boolean(objV.Obj.Delete(key)), nil

	case "++", "--":
		old, err := it.evalExpr(x.X, sc, frame)
		if err != nil {
			return Undefined(), err
		}
		n := old.ToNumber()
		var nv Value
		if x.Op == "++" {
			nv = Number(n + 1)
		} else {
			nv = Number(n - 1)
		}
		if err := it.assignTo(x.X, nv, sc, frame); err != nil {
			return Undefined(), err
		}
		return nv, nil
	}

	v, err := it.evalExpr(x.X, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	switch x.Op {
	case "!":
		return Boolean(!v.Truthy()), nil
	case "-":
		return Number(-v.ToNumber()), nil
	case "+":
		return Number(v.ToNumber()), nil
	case "~":
		return Number(float64(^toInt32(v.ToNumber()))), nil
	}
	return Undefined(), it.ThrowError("InternalError", "unknown unary op %q", x.Op)
}

func (it *Interp) evalBinary(x *BinaryExpr, sc *Scope, frame *Frame) (Value, error) {
	l, err := it.evalExpr(x.L, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	r, err := it.evalExpr(x.R, sc, frame)
	if err != nil {
		return Undefined(), err
	}
	return it.applyBinary(x.Op, l, r)
}

func (it *Interp) applyBinary(op string, l, r Value) (Value, error) {
	code, ok := binOpCodes[op]
	if !ok {
		return Undefined(), it.ThrowError("InternalError", "unknown binary op %q", op)
	}
	return it.binop(code, l, r)
}

// assignTo stores val into an Ident or MemberExpr target.
func (it *Interp) assignTo(target Node, val Value, sc *Scope, frame *Frame) error {
	switch t := target.(type) {
	case *Ident:
		for cur := sc; cur != nil; cur = cur.parent {
			if slot := cur.slot(t.Name); slot != nil {
				*slot = val
				return nil
			}
			if cur.global != nil {
				// assignment to globals (declared or not) writes the global object
				return it.setMember(cur.global, t.Name, val)
			}
		}
		it.Global.Set(t.Name, val)
		return nil
	case *MemberExpr:
		objV, key, err := it.evalMemberOperands(t, sc, frame)
		if err != nil {
			return err
		}
		if !objV.IsObject() {
			return it.ThrowError("TypeError", "cannot set property %q on %s", key, objV.TypeOf())
		}
		return it.setMember(objV.Obj, key, val)
	}
	return it.ThrowError("ReferenceError", "invalid assignment target")
}
