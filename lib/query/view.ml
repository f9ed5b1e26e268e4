type t = { name : string; def : Algebra.t; bases : string list }

let make name def = { name; def; bases = Algebra.base_relations def }

let name t = t.name

let base_relations t = t.bases

let schema lookup t = Algebra.schema_of lookup t.def

let uses t r = List.mem r t.bases

let materialize db t = Eval.eval db t.def

let overlaps a b = List.exists (fun r -> List.mem r b.bases) a.bases

let pp ppf t = Fmt.pf ppf "%s = %a" t.name Algebra.pp t.def
