package jsdom

import (
	"fmt"

	"gullible/internal/httpsim"
	"gullible/internal/minjs"
)

const (
	scriptType = httpsim.TypeScript
	imageType  = httpsim.TypeImage
	xhrType    = httpsim.TypeXHR
	beaconType = httpsim.TypeBeacon
)

// ---- Promise (host-scheduled, resolve/reject + then/catch) ----

const (
	promisePending = iota
	promiseFulfilled
	promiseRejected
)

type promiseData struct {
	state     int
	value     minjs.Value
	reactions []promiseReaction
}

type promiseReaction struct {
	onFul, onRej *minjs.Object
	next         *minjs.Object
}

func (d *DOM) newPromise() *minjs.Object {
	p := minjs.NewObject(d.promiseProto())
	p.Class = "Promise"
	p.Host = &promiseData{}
	return p
}

func (d *DOM) promiseProto() *minjs.Object {
	if p, ok := d.Protos["Promise"]; ok {
		return p
	}
	pp := minjs.NewObject(d.It.Protos.Object)
	pp.Class = "PromisePrototype"
	d.Protos["Promise"] = pp
	d.DefineMethod(pp, "then", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return d.promiseThen(this, argVal(args, 0), argVal(args, 1))
	})
	d.DefineMethod(pp, "catch", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return d.promiseThen(this, minjs.Undefined(), argVal(args, 0))
	})
	d.DefineMethod(pp, "finally", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return d.promiseThen(this, argVal(args, 0), argVal(args, 0))
	})
	return pp
}

func (d *DOM) promiseThen(this minjs.Value, onFul, onRej minjs.Value) (minjs.Value, error) {
	if !this.IsObject() {
		return minjs.Undefined(), d.It.ThrowError("TypeError", "then called on non-promise")
	}
	pd, ok := this.Obj.Host.(*promiseData)
	if !ok {
		return minjs.Undefined(), d.It.ThrowError("TypeError", "then called on non-promise")
	}
	next := d.newPromise()
	r := promiseReaction{next: next}
	if onFul.IsFunction() {
		r.onFul = onFul.Obj
	}
	if onRej.IsFunction() {
		r.onRej = onRej.Obj
	}
	pd.reactions = append(pd.reactions, r)
	if pd.state != promisePending {
		d.flushPromise(this.Obj)
	}
	return minjs.ObjectValue(next), nil
}

// settle fixes the promise state and schedules its reactions.
func (d *DOM) settle(p *minjs.Object, v minjs.Value, rejected bool) {
	pd := p.Host.(*promiseData)
	if pd.state != promisePending {
		return
	}
	// adopting another promise's state
	if !rejected && v.IsObject() {
		if inner, ok := v.Obj.Host.(*promiseData); ok {
			_ = inner
			fulfil := d.It.NewNative("", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
				d.settle(p, argVal(args, 0), false)
				return minjs.Undefined(), nil
			})
			reject := d.It.NewNative("", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
				d.settle(p, argVal(args, 0), true)
				return minjs.Undefined(), nil
			})
			d.promiseThen(v, minjs.ObjectValue(fulfil), minjs.ObjectValue(reject))
			return
		}
	}
	pd.value = v
	if rejected {
		pd.state = promiseRejected
	} else {
		pd.state = promiseFulfilled
	}
	d.flushPromise(p)
}

// flushPromise schedules all pending reactions of a settled promise on the
// host event loop.
func (d *DOM) flushPromise(p *minjs.Object) {
	pd := p.Host.(*promiseData)
	if pd.state == promisePending || len(pd.reactions) == 0 {
		return
	}
	reactions := pd.reactions
	pd.reactions = nil
	for _, r := range reactions {
		r := r
		runner := d.It.NewNative("", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			cb := r.onFul
			if pd.state == promiseRejected {
				cb = r.onRej
			}
			if cb == nil {
				// pass through
				d.settle(r.next, pd.value, pd.state == promiseRejected)
				return minjs.Undefined(), nil
			}
			res, err := it.CallFunction(cb, minjs.Undefined(), []minjs.Value{pd.value})
			if err != nil {
				if thr, ok := err.(*minjs.Throw); ok {
					d.settle(r.next, thr.Value, true)
					return minjs.Undefined(), nil
				}
				return minjs.Undefined(), err
			}
			d.settle(r.next, res, false)
			return minjs.Undefined(), nil
		})
		d.Host.SetTimeout(runner, nil, 0)
	}
}

// Resolved returns a promise already fulfilled with v.
func (d *DOM) Resolved(v minjs.Value) *minjs.Object {
	p := d.newPromise()
	d.settle(p, v, false)
	return p
}

func (d *DOM) buildNet() {
	it := d.It
	w := d.Window

	// Promise constructor
	promiseCtor := it.NewNative("Promise", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		p := d.newPromise()
		executor := argVal(args, 0)
		if executor.IsFunction() {
			resolveFn := it.NewNative("resolve", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
				d.settle(p, argVal(args, 0), false)
				return minjs.Undefined(), nil
			})
			rejectFn := it.NewNative("reject", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
				d.settle(p, argVal(args, 0), true)
				return minjs.Undefined(), nil
			})
			if _, err := it.CallFunction(executor.Obj, minjs.Undefined(), []minjs.Value{minjs.ObjectValue(resolveFn), minjs.ObjectValue(rejectFn)}); err != nil {
				if thr, ok := err.(*minjs.Throw); ok {
					d.settle(p, thr.Value, true)
				} else {
					return minjs.Undefined(), err
				}
			}
		}
		return minjs.ObjectValue(p), nil
	})
	promiseCtor.SetNonEnum("prototype", minjs.ObjectValue(d.promiseProto()))
	promiseCtor.SetNonEnum("resolve", minjs.ObjectValue(it.NewNative("resolve", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(d.Resolved(argVal(args, 0))), nil
	})))
	promiseCtor.SetNonEnum("reject", minjs.ObjectValue(it.NewNative("reject", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		p := d.newPromise()
		d.settle(p, argVal(args, 0), true)
		return minjs.ObjectValue(p), nil
	})))
	w.SetNonEnum("Promise", minjs.ObjectValue(promiseCtor))

	// fetch: resolves with a Response-like object.
	w.SetNonEnum("fetch", minjs.ObjectValue(it.NewNative("fetch", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		url := d.absURL(argStr(args, 0))
		method, reqBody := "GET", ""
		if opts := argVal(args, 1); opts.IsObject() {
			if m, _ := it.GetMember(opts, "method"); !m.IsNullish() {
				method = m.ToString()
			}
			if b, _ := it.GetMember(opts, "body"); !b.IsNullish() {
				reqBody = b.ToString()
			}
		}
		status, ctype, body, err := d.Host.Fetch(url, xhrType, method, reqBody)
		p := d.newPromise()
		if err != nil {
			d.settle(p, minjs.ObjectValue(it.NewError("TypeError", "NetworkError when attempting to fetch resource")), true)
			return minjs.ObjectValue(p), nil
		}
		resp := minjs.NewObject(it.Protos.Object)
		resp.Class = "Response"
		resp.Set("status", minjs.Int(status))
		resp.Set("ok", minjs.Boolean(status >= 200 && status < 300))
		resp.Set("url", minjs.String(url))
		headers := minjs.NewObject(it.Protos.Object)
		headers.Class = "Headers"
		d.DefineMethod(headers, "get", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			if argStr(args, 0) == "content-type" || argStr(args, 0) == "Content-Type" {
				return minjs.String(ctype), nil
			}
			return minjs.Null(), nil
		})
		resp.Set("headers", minjs.ObjectValue(headers))
		bodyStr := body
		d.DefineMethod(resp, "text", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			return minjs.ObjectValue(d.Resolved(minjs.String(bodyStr))), nil
		})
		d.DefineMethod(resp, "json", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			// a JSON reader, never the script engine: the body is data from
			// the server and must not run in the page
			v, err := it.ParseJSON(bodyStr)
			if err != nil {
				p2 := d.newPromise()
				d.settle(p2, minjs.ObjectValue(it.NewError("SyntaxError", "invalid JSON")), true)
				return minjs.ObjectValue(p2), nil
			}
			return minjs.ObjectValue(d.Resolved(v)), nil
		})
		d.settle(p, minjs.ObjectValue(resp), false)
		return minjs.ObjectValue(p), nil
	})))

	// XMLHttpRequest (synchronous under the hood; onload fires async).
	xhrProto := minjs.NewObject(it.Protos.Object)
	xhrProto.Class = "XMLHttpRequestPrototype"
	d.Protos["XMLHttpRequest"] = xhrProto
	d.DefineMethod(xhrProto, "open", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if this.IsObject() {
			this.Obj.SetNonEnum("__method", minjs.String(argStr(args, 0)))
			this.Obj.SetNonEnum("__url", minjs.String(argStr(args, 1)))
		}
		return minjs.Undefined(), nil
	})
	d.DefineMethod(xhrProto, "setRequestHeader", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Undefined(), nil
	})
	d.DefineMethod(xhrProto, "send", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		if !this.IsObject() {
			return minjs.Undefined(), nil
		}
		m, _ := it.GetMember(this, "__method")
		u, _ := it.GetMember(this, "__url")
		status, _, body, _ := d.Host.Fetch(d.absURL(u.ToString()), xhrType, m.ToString(), argStr(args, 0))
		this.Obj.Set("status", minjs.Int(status))
		this.Obj.Set("responseText", minjs.String(body))
		this.Obj.Set("readyState", minjs.Int(4))
		if onload, _ := it.GetMember(this, "onload"); onload.IsFunction() {
			d.Host.SetTimeout(onload.Obj, nil, 0)
		}
		if onrsc, _ := it.GetMember(this, "onreadystatechange"); onrsc.IsFunction() {
			d.Host.SetTimeout(onrsc.Obj, nil, 0)
		}
		return minjs.Undefined(), nil
	})
	xhrCtor := it.NewNative("XMLHttpRequest", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		o := minjs.NewObject(xhrProto)
		o.Class = "XMLHttpRequest"
		return minjs.ObjectValue(o), nil
	})
	xhrCtor.SetNonEnum("prototype", minjs.ObjectValue(xhrProto))
	w.SetNonEnum("XMLHttpRequest", minjs.ObjectValue(xhrCtor))

	// Image constructor: tracking pixels.
	imgCtor := it.NewNative("Image", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.ObjectValue(d.NewElement("img")), nil
	})
	imgCtor.SetNonEnum("prototype", minjs.ObjectValue(d.Protos["HTMLImageElement"]))
	w.SetNonEnum("Image", minjs.ObjectValue(imgCtor))
}

func (d *DOM) buildDateIntl() {
	it := d.It
	cfg := d.Cfg
	const epochMS = 1655712000000 // 2022-06-20, the paper's measurement window

	dateProto := minjs.NewObject(it.Protos.Object)
	dateProto.Class = "DatePrototype"
	d.Protos["Date"] = dateProto
	d.DefineMethod(dateProto, "getTime", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Number(epochMS + d.Host.Now()), nil
	})
	d.DefineMethod(dateProto, "getTimezoneOffset", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Int(cfg.TimezoneOffset), nil
	})
	d.DefineMethod(dateProto, "getFullYear", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Int(2022), nil
	})
	d.DefineMethod(dateProto, "toISOString", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.String(fmt.Sprintf("2022-06-20T00:00:%06.3fZ", d.Host.Now()/1000)), nil
	})
	dateCtor := it.NewNative("Date", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		o := minjs.NewObject(dateProto)
		o.Class = "Date"
		return minjs.ObjectValue(o), nil
	})
	dateCtor.SetNonEnum("prototype", minjs.ObjectValue(dateProto))
	dateCtor.SetNonEnum("now", minjs.ObjectValue(it.NewNative("now", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		return minjs.Number(epochMS + d.Host.Now()), nil
	})))
	d.Window.SetNonEnum("Date", minjs.ObjectValue(dateCtor))

	// Intl.DateTimeFormat().resolvedOptions().timeZone — empty in Docker.
	intl := minjs.NewObject(it.Protos.Object)
	intl.Class = "Intl"
	dtf := it.NewNative("DateTimeFormat", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
		o := minjs.NewObject(it.Protos.Object)
		o.Class = "DateTimeFormat"
		d.DefineMethod(o, "resolvedOptions", func(it *minjs.Interp, this minjs.Value, args []minjs.Value) (minjs.Value, error) {
			opts := minjs.NewObject(it.Protos.Object)
			tz := ""
			if cfg.HasTimezone {
				tz = "Europe/Berlin"
			}
			opts.Set("timeZone", minjs.String(tz))
			opts.Set("locale", minjs.String("en-US"))
			return minjs.ObjectValue(opts), nil
		})
		return minjs.ObjectValue(o), nil
	})
	intl.SetNonEnum("DateTimeFormat", minjs.ObjectValue(dtf))
	d.Window.SetNonEnum("Intl", minjs.ObjectValue(intl))
}
