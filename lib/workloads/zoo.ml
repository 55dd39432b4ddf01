(** The model zoo: the one definition of what the front ends feed the
    compiler. The models stand in for the paper's frontend importers
    (§2): the dynamic models of §6 (LSTM, Tree-LSTM, BERT) and their
    relatives, plus the static CNNs of Table 4. [nimble_cli], the tests,
    the benches and the examples take their models, sample VM arguments
    and the example modules [nimble_cli lint all] covers from here, and
    encode [TensorList] and [TensorTree] arguments with {!tensor_list}
    and {!tensor_tree}. *)

open Nimble_tensor
open Nimble_models
open Nimble_ir
module Obj = Nimble_vm.Obj

(* --------------------- VM arguments for the model ADTs --------------------- *)

(** The [TensorList] VM value holding [xs] in order: the input of the
    LSTM, GRU and seq2seq models. Constructor tags depend only on the
    constructors' order, not on the element type. *)
let tensor_list xs =
  let adt = Adt.tensor_list ~elem_ty:(Ty.tensor [ Dim.static 1; Dim.Any ]) in
  let nil = Adt.ctor_exn adt "Nil" and cons = Adt.ctor_exn adt "Cons" in
  List.fold_right
    (fun x acc -> Obj.Adt { tag = cons.Adt.tag; fields = [| Obj.tensor x; acc |] })
    xs
    (Obj.Adt { tag = nil.Adt.tag; fields = [||] })

(** The [TensorTree] VM value of a Tree-LSTM input tree. *)
let tensor_tree t =
  let adt = Adt.tensor_tree ~leaf_ty:(Ty.tensor [ Dim.static 1; Dim.Any ]) in
  let leaf = Adt.ctor_exn adt "Leaf" and node = Adt.ctor_exn adt "Node" in
  let rec obj = function
    | Tree_lstm.Leaf x -> Obj.Adt { tag = leaf.Adt.tag; fields = [| Obj.tensor x |] }
    | Tree_lstm.Node (l, r) -> Obj.Adt { tag = node.Adt.tag; fields = [| obj l; obj r |] }
  in
  obj t

(* ------------------------------- models ------------------------------- *)

type model = {
  name : string;
  description : string;
  build : unit -> Irmod.t;
      (** fresh IR on every call: the passes mutate the module they compile *)
  sample_input : seq:int -> Obj.t;
      (** the VM argument of a [seq]-token request; the vision models
          ignore [seq] *)
}

(* [init ()] runs once, on first use. The lock makes first use safe from
   several domains at once (loadgen clients make sample inputs). *)
let once init =
  let lock = Mutex.create () and cell = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !cell with
        | Some w -> w
        | None ->
            let w = init () in
            cell := Some w;
            w)

let model name description ~init ~ir ~input =
  let weights = once init in
  {
    name;
    description;
    build = (fun () -> ir (weights ()));
    sample_input = (fun ~seq -> input (weights ()) ~seq);
  }

let vision (name, build) =
  {
    name;
    description = Fmt.str "%s (static vision graph)" name;
    build;
    sample_input = (fun ~seq:_ -> Obj.tensor (Vision.random_input ()));
  }

(** The eleven zoo models, in the order [nimble_cli models] lists them.
    Each model's weights are built once, on first use. *)
let models =
  [
    model "lstm" "LSTM (dynamic control flow over a TensorList)"
      ~init:(fun () -> Lstm.init_weights Lstm.small_config)
      ~ir:Lstm.ir_module
      ~input:(fun w ~seq -> tensor_list (Lstm.random_sequence w.Lstm.config ~len:seq));
    model "posenc"
      "positional-encoding head (data-dependent arange proven static by \
       shape-value dominance)"
      ~init:(fun () -> Posenc.init_weights Posenc.default_config)
      ~ir:Posenc.ir_module
      ~input:(fun w ~seq -> Obj.tensor (Posenc.random_input w ~len:(max 1 seq)));
    model "gru" "GRU (dynamic control flow over a TensorList)"
      ~init:(fun () -> Gru.init_weights Gru.small_config)
      ~ir:Gru.ir_module
      ~input:(fun w ~seq -> tensor_list (Gru.random_sequence w.Gru.config ~len:seq));
    model "treelstm" "Tree-LSTM (dynamic data structure, SST-like trees)"
      ~init:(fun () -> Tree_lstm.init_weights Tree_lstm.small_config)
      ~ir:Tree_lstm.ir_module
      ~input:(fun w ~seq ->
        tensor_tree
          (Sst.sample_tree (Rng.create ~seed:1) w.Tree_lstm.config ~tokens:(max 1 seq)));
    model "bert" "BERT encoder (dynamic sequence length)"
      ~init:(fun () -> Bert.init_weights Bert.small_config)
      ~ir:Bert.ir_module
      ~input:(fun w ~seq -> Obj.tensor (Bert.embed w (Bert.random_ids w ~len:seq)));
    model "decoder" "greedy decoder (output tensor grows per step)"
      ~init:(fun () -> Decoder.init_weights Decoder.default_config)
      ~ir:Decoder.ir_module
      ~input:(fun w ~seq -> Obj.tensor (Decoder.random_state ~seed:seq w.Decoder.config));
    model "seq2seq" "seq2seq (dynamic input length -> dynamic output length)"
      ~init:(fun () -> Seq2seq.init_weights Seq2seq.default_config)
      ~ir:Seq2seq.ir_module
      ~input:(fun w ~seq -> tensor_list (Seq2seq.random_sequence w.Seq2seq.config ~len:seq));
  ]
  @ List.map vision Vision.all

let find name = List.find_opt (fun m -> m.name = name) models

(* ---------------------------- example modules ---------------------------- *)

(** Fresh IR of the programs the [examples/] executables build: the
    quickstart dense/bias_add/tanh chain, the detection post-processing
    nms/strided_slice/sqrt pipeline, and the data-dependent [arange]. *)
let example_modules () : (string * Irmod.t) list =
  let rng = Rng.create ~seed:42 in
  let quickstart =
    let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 16 ]) "x" in
    let w = Tensor.randn ~scale:0.2 rng [| 8; 16 |] in
    let b = Tensor.randn ~scale:0.2 rng [| 8 |] in
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.op_call "tanh"
            [
              Expr.op_call "bias_add"
                [ Expr.op_call "dense" [ Expr.Var x; Expr.Const w ]; Expr.Const b ];
            ]))
  in
  let detection =
    let boxes = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 5 ]) "boxes" in
    let kept = Expr.fresh_var "kept" in
    let scores = Expr.fresh_var "scores" in
    Irmod.of_main
      (Expr.fn_def [ boxes ]
         (Expr.Let
            ( kept,
              Expr.op_call ~attrs:[ ("iou", Attrs.Float 0.45) ] "nms" [ Expr.Var boxes ],
              Expr.Let
                ( scores,
                  Expr.op_call
                    ~attrs:[ ("begins", Attrs.Ints [ 0; 0 ]); ("ends", Attrs.Ints [ 1000000; 1 ]) ]
                    "strided_slice" [ Expr.Var kept ],
                  Expr.op_call "sqrt" [ Expr.Var scores ] ) )))
  in
  let arange =
    let s = Expr.fresh_var ~ty:(Ty.scalar ()) "stop" in
    Irmod.of_main
      (Expr.fn_def [ s ]
         (Expr.op_call "arange" [ Expr.const_scalar 0.0; Expr.Var s; Expr.const_scalar 1.0 ]))
  in
  [ ("ex:quickstart", quickstart); ("ex:detection", detection); ("ex:arange", arange) ]

(** Fresh IR for every zoo model, then every example module: what
    [nimble_cli lint all] and [classify all] cover. *)
let all_modules () = List.map (fun m -> (m.name, m.build ())) models @ example_modules ()
