(* Tensor substrate tests: shapes, broadcasting, creation, elementwise ops,
   matmul/dense, reductions, shape ops and NN ops — plus qcheck properties
   on the core invariants. *)

open Nimble_tensor

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-5 ~rtol:1e-5)
let rng = Rng.create ~seed:3

(* ---------------------------- shapes ---------------------------- *)

let test_numel_rank () =
  Alcotest.(check int) "numel" 24 (Shape.numel [| 2; 3; 4 |]);
  Alcotest.(check int) "numel scalar" 1 (Shape.numel [||]);
  Alcotest.(check int) "numel zero" 0 (Shape.numel [| 2; 0; 4 |]);
  Alcotest.(check int) "rank" 3 (Shape.rank [| 2; 3; 4 |])

let test_strides () =
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "strides rank1" [| 1 |] (Shape.strides [| 7 |])

let test_linear_unravel () =
  let s = [| 2; 3; 4 |] in
  Alcotest.(check int) "linear" 23 (Shape.linear_index s [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "unravel" [| 1; 2; 3 |] (Index_loops.Shape.unravel s 23);
  Alcotest.check_raises "oob" (Shape.Shape_error "index 3 out of bounds for dim 1 of (2, 3, 4)")
    (fun () -> ignore (Shape.linear_index s [| 0; 3; 0 |]))

let test_broadcast () =
  let check_bc a b expected =
    match (Shape.broadcast a b, expected) with
    | Some got, Some want -> Alcotest.(check (array int)) "bc" want got
    | None, None -> ()
    | Some got, None -> Alcotest.failf "expected failure, got %a" Shape.pp got
    | None, Some _ -> Alcotest.fail "expected success"
  in
  check_bc [| 4; 1 |] [| 1; 5 |] (Some [| 4; 5 |]);
  check_bc [| 5 |] [| 3; 5 |] (Some [| 3; 5 |]);
  check_bc [||] [| 2; 2 |] (Some [| 2; 2 |]);
  check_bc [| 3 |] [| 4 |] None;
  check_bc [| 2; 3 |] [| 3; 2 |] None

let test_reshape_resolve () =
  Alcotest.(check (array int)) "-1 inference" [| 4; 6 |]
    (Shape.resolve_reshape ~from:[| 2; 3; 4 |] [| 4; -1 |]);
  Alcotest.check_raises "bad count" (Shape.Shape_error "reshape from (2, 3) to (4, 2) changes element count")
    (fun () -> ignore (Shape.resolve_reshape ~from:[| 2; 3 |] [| 4; 2 |]))

(* ---------------------------- tensors ---------------------------- *)

let test_create_fill () =
  let t = Tensor.full [| 2; 3 |] 1.5 in
  Alcotest.(check (float 0.0)) "get" 1.5 (Tensor.get t [| 1; 2 |]);
  Alcotest.(check int) "bytes f32" 24 (Tensor.size_in_bytes t);
  let z = Tensor.zeros ~dtype:Dtype.I64 [| 4 |] in
  Alcotest.(check int) "i64 bytes" 32 (Tensor.size_in_bytes z)

let test_dtype_roundtrip () =
  List.iter
    (fun dt ->
      let t = Tensor.of_float_array ~dtype:dt [| 3 |] [| 1.0; 2.0; 3.0 |] in
      Alcotest.(check (list (float 0.0)))
        (Dtype.to_string dt)
        [ 1.0; 2.0; 3.0 ]
        (Array.to_list (Tensor.to_float_array t)))
    Dtype.all

let test_u8_wraps () =
  let t = Tensor.of_int_array ~dtype:Dtype.U8 [| 2 |] [| 256; 300 |] in
  Alcotest.(check (list int)) "wrap" [ 0; 44 ] (Array.to_list (Tensor.to_int_array t))

let test_copy_independent () =
  let a = Tensor.zeros [| 3 |] in
  let b = Tensor.copy a in
  Tensor.set_float b 0 9.0;
  Alcotest.(check (float 0.0)) "original untouched" 0.0 (Tensor.get_float a 0)

let test_blit () =
  let a = Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = Tensor.zeros [| 3 |] in
  Tensor.blit ~src:a ~dst:b;
  Alcotest.check tensor_eq "blit" a b

(* ---------------------------- elementwise ---------------------------- *)

let t123 = Tensor.of_float_array [| 3 |] [| 1.; 2.; 3. |]

let test_add_broadcast () =
  let a = Tensor.of_float_array [| 2; 1 |] [| 10.; 20. |] in
  let out = Ops_elem.add a t123 in
  Alcotest.check tensor_eq "broadcast add"
    (Tensor.of_float_array [| 2; 3 |] [| 11.; 12.; 13.; 21.; 22.; 23. |])
    out

let test_activations () =
  let x = Tensor.of_float_array [| 2 |] [| -1.0; 2.0 |] in
  Alcotest.check tensor_eq "relu" (Tensor.of_float_array [| 2 |] [| 0.0; 2.0 |]) (Ops_elem.relu x);
  let s = Ops_elem.sigmoid (Tensor.zeros [| 1 |]) in
  Alcotest.(check (float 1e-6)) "sigmoid(0)" 0.5 (Tensor.get_float s 0);
  let t = Ops_elem.tanh (Tensor.zeros [| 1 |]) in
  Alcotest.(check (float 1e-6)) "tanh(0)" 0.0 (Tensor.get_float t 0)

let test_comparisons_bool_dtype () =
  let out = Ops_elem.less t123 (Tensor.full [| 3 |] 2.5) in
  Alcotest.(check string) "u8" "uint8" (Dtype.to_string (Tensor.dtype out));
  Alcotest.(check (list int)) "values" [ 1; 1; 0 ] (Array.to_list (Tensor.to_int_array out))

let test_where () =
  let cond = Tensor.of_int_array ~dtype:Dtype.U8 [| 3 |] [| 1; 0; 1 |] in
  let out = Ops_elem.where cond t123 (Tensor.full [| 3 |] 9.0) in
  Alcotest.check tensor_eq "where" (Tensor.of_float_array [| 3 |] [| 1.; 9.; 3. |]) out

let test_erf_reference_points () =
  let x = Tensor.of_float_array [| 3 |] [| 0.0; 1.0; -1.0 |] in
  let out = Ops_elem.erf x in
  Alcotest.(check (float 1e-4)) "erf(0)" 0.0 (Tensor.get_float out 0);
  Alcotest.(check (float 1e-4)) "erf(1)" 0.8427 (Tensor.get_float out 1);
  Alcotest.(check (float 1e-4)) "erf(-1)" (-0.8427) (Tensor.get_float out 2)

(* ---------------------------- matmul ---------------------------- *)

let naive_dense a w =
  let m = (Tensor.shape a).(0) and k = (Tensor.shape a).(1) in
  let n = (Tensor.shape w).(0) in
  Tensor.init [| m; n |] (fun idx ->
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a [| idx.(0); p |] *. Tensor.get w [| idx.(1); p |])
      done;
      !acc)

let test_dense_matches_naive () =
  List.iter
    (fun (m, n, k) ->
      let a = Tensor.randn rng [| m; k |] and w = Tensor.randn rng [| n; k |] in
      Alcotest.check tensor_eq (Fmt.str "%dx%dx%d" m n k) (naive_dense a w)
        (Ops_matmul.dense a w))
    [ (1, 1, 1); (3, 5, 7); (33, 17, 40); (64, 64, 64) ]

let test_matmul_identity () =
  let i3 = Tensor.init [| 3; 3 |] (fun idx -> if idx.(0) = idx.(1) then 1.0 else 0.0) in
  let a = Tensor.randn rng [| 3; 3 |] in
  Alcotest.check tensor_eq "a*I = a" a (Ops_matmul.matmul a i3)

let test_batch_matmul () =
  let a = Tensor.randn rng [| 2; 3; 4 |] and b = Tensor.randn rng [| 2; 4; 5 |] in
  let out = Ops_matmul.batch_matmul a b in
  Alcotest.(check (array int)) "shape" [| 2; 3; 5 |] (Tensor.shape out);
  (* batch 0 equals 2-D matmul of the slices *)
  let a0 = Ops_shape.strided_slice ~begins:[| 0; 0; 0 |] ~ends:[| 1; 3; 4 |] a in
  let b0 = Ops_shape.strided_slice ~begins:[| 0; 0; 0 |] ~ends:[| 1; 4; 5 |] b in
  let m0 = Ops_matmul.matmul (Tensor.reshape a0 [| 3; 4 |]) (Tensor.reshape b0 [| 4; 5 |]) in
  let out0 =
    Tensor.reshape (Ops_shape.strided_slice ~begins:[| 0; 0; 0 |] ~ends:[| 1; 3; 5 |] out) [| 3; 5 |]
  in
  Alcotest.check tensor_eq "batch0" m0 out0

let test_dense_bias () =
  let a = Tensor.randn rng [| 4; 6 |] and w = Tensor.randn rng [| 5; 6 |] in
  let b = Tensor.randn rng [| 5 |] in
  Alcotest.check tensor_eq "dense+bias"
    (Ops_elem.add (Ops_matmul.dense a w) b)
    (Ops_matmul.dense_bias a w b)

(* ---------------------------- reductions ---------------------------- *)

let t2x3 = Tensor.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |]

let test_reductions () =
  Alcotest.(check (float 1e-6)) "sum all" 21.0 (Tensor.item (Ops_reduce.sum t2x3));
  Alcotest.check tensor_eq "sum axis0"
    (Tensor.of_float_array [| 3 |] [| 5.; 7.; 9. |])
    (Ops_reduce.sum ~axis:0 t2x3);
  Alcotest.check tensor_eq "sum axis1 keepdims"
    (Tensor.of_float_array [| 2; 1 |] [| 6.; 15. |])
    (Ops_reduce.sum ~axis:1 ~keepdims:true t2x3);
  Alcotest.check tensor_eq "mean axis1"
    (Tensor.of_float_array [| 2 |] [| 2.; 5. |])
    (Ops_reduce.mean ~axis:1 t2x3);
  Alcotest.(check (float 1e-6)) "max" 6.0 (Tensor.item (Ops_reduce.max t2x3));
  Alcotest.(check (float 1e-6)) "min" 1.0 (Tensor.item (Ops_reduce.min t2x3))

(* An integer axis max or min starts from the dtype's identity, not from
   0, and agrees with the whole-tensor reduction. *)
let test_integer_axis_max_min () =
  let ints dtype xs = Tensor.of_int_array ~dtype [| Array.length xs |] xs in
  let check name want got =
    Alcotest.(check (list int)) name [ want ] (Array.to_list (Tensor.to_int_array got))
  in
  check "i64 max axis0" (-3) (Ops_reduce.max ~axis:0 (ints Dtype.I64 [| -3; -5 |]));
  check "i64 max all" (-3) (Ops_reduce.max (ints Dtype.I64 [| -3; -5 |]));
  check "i64 min axis0" 3 (Ops_reduce.min ~axis:0 (ints Dtype.I64 [| 3; 5 |]));
  check "u8 min axis0" 3 (Ops_reduce.min ~axis:0 (ints Dtype.U8 [| 3; 5 |]));
  check "u8 max axis0" 5 (Ops_reduce.max ~axis:0 (ints Dtype.U8 [| 3; 5 |]))

let test_argmax () =
  let out = Ops_reduce.argmax ~axis:1 t2x3 in
  Alcotest.(check (list int)) "argmax" [ 2; 2 ] (Array.to_list (Tensor.to_int_array out));
  let out0 = Ops_reduce.argmax ~axis:0 t2x3 in
  Alcotest.(check (list int)) "argmax axis0" [ 1; 1; 1 ] (Array.to_list (Tensor.to_int_array out0))

(* ---------------------------- shape ops ---------------------------- *)

let test_transpose () =
  let out = Ops_shape.transpose t2x3 in
  Alcotest.check tensor_eq "transpose"
    (Tensor.of_float_array [| 3; 2 |] [| 1.; 4.; 2.; 5.; 3.; 6. |])
    out;
  (* transpose twice is identity *)
  Alcotest.check tensor_eq "involution" t2x3 (Ops_shape.transpose out)

let test_transpose_axes () =
  let t = Tensor.randn rng [| 2; 3; 4 |] in
  let out = Ops_shape.transpose ~axes:[| 1; 0; 2 |] t in
  Alcotest.(check (array int)) "shape" [| 3; 2; 4 |] (Tensor.shape out);
  Alcotest.(check (float 0.0)) "element" (Tensor.get t [| 1; 2; 3 |]) (Tensor.get out [| 2; 1; 3 |])

let test_concat_split_roundtrip () =
  let a = Tensor.randn rng [| 2; 4 |] and b = Tensor.randn rng [| 2; 4 |] in
  let cat = Ops_shape.concat ~axis:0 [ a; b ] in
  Alcotest.(check (array int)) "cat shape" [| 4; 4 |] (Tensor.shape cat);
  (match Ops_shape.split ~axis:0 ~sections:2 cat with
  | [ a'; b' ] ->
      Alcotest.check tensor_eq "a" a a';
      Alcotest.check tensor_eq "b" b b'
  | _ -> Alcotest.fail "expected 2 sections");
  let cat1 = Ops_shape.concat ~axis:1 [ a; b ] in
  Alcotest.(check (array int)) "cat1 shape" [| 2; 8 |] (Tensor.shape cat1)

let test_slice () =
  let out = Ops_shape.strided_slice ~begins:[| 0; 1 |] ~ends:[| 2; 3 |] t2x3 in
  Alcotest.check tensor_eq "slice"
    (Tensor.of_float_array [| 2; 2 |] [| 2.; 3.; 5.; 6. |])
    out;
  (* negative indices count from the end *)
  let neg = Ops_shape.strided_slice ~begins:[| 0; -2 |] ~ends:[| 1; 3 |] t2x3 in
  Alcotest.check tensor_eq "negative" (Tensor.of_float_array [| 1; 2 |] [| 2.; 3. |]) neg

let test_take () =
  let ids = Tensor.of_int_array [| 2 |] [| 1; 0 |] in
  let out = Ops_shape.take ~axis:0 t2x3 ids in
  Alcotest.check tensor_eq "take rows"
    (Tensor.of_float_array [| 2; 3 |] [| 4.; 5.; 6.; 1.; 2.; 3. |])
    out

let test_arange_unique () =
  let r = Ops_shape.arange ~start:0.0 ~stop:5.0 ~step:2.0 () in
  Alcotest.check tensor_eq "arange" (Tensor.of_float_array [| 3 |] [| 0.; 2.; 4. |]) r;
  let empty = Ops_shape.arange ~start:3.0 ~stop:1.0 ~step:1.0 () in
  Alcotest.(check int) "empty arange" 0 (Tensor.numel empty);
  let u = Ops_shape.unique (Tensor.of_float_array [| 5 |] [| 3.; 1.; 3.; 2.; 1. |]) in
  Alcotest.check tensor_eq "unique order" (Tensor.of_float_array [| 3 |] [| 3.; 1.; 2. |]) u

let test_tile_stack () =
  let t = Tensor.of_float_array [| 2 |] [| 1.; 2. |] in
  Alcotest.check tensor_eq "tile"
    (Tensor.of_float_array [| 4 |] [| 1.; 2.; 1.; 2. |])
    (Ops_shape.tile ~reps:[| 2 |] t);
  let s = Ops_shape.stack [ t; t ] in
  Alcotest.(check (array int)) "stack" [| 2; 2 |] (Tensor.shape s)

(* ---------------------------- NN ops ---------------------------- *)

let test_softmax () =
  let out = Ops_nn.softmax ~axis:1 t2x3 in
  let rows = Ops_reduce.sum ~axis:1 out in
  Alcotest.check tensor_eq "rows sum to 1" (Tensor.ones [| 2 |]) rows;
  (* invariant under shift *)
  let shifted = Ops_nn.softmax ~axis:1 (Ops_elem.add_scalar t2x3 100.0) in
  Alcotest.check tensor_eq "shift invariant" out shifted

let test_layer_norm () =
  let x = Tensor.randn rng [| 4; 8 |] in
  let out = Ops_nn.layer_norm x ~gamma:(Tensor.ones [| 8 |]) ~beta:(Tensor.zeros [| 8 |]) in
  let mu = Ops_reduce.mean ~axis:1 out in
  Alcotest.check (Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-3))
    "zero mean" (Tensor.zeros [| 4 |]) mu;
  let var = Ops_reduce.mean ~axis:1 (Ops_elem.mul out out) in
  Array.iter (fun _ -> ()) (Tensor.shape var);
  for i = 0 to 3 do
    Alcotest.(check bool) "unit variance" true (Float.abs (Tensor.get_float var i -. 1.0) < 0.05)
  done

let test_conv2d_known () =
  (* 1x1x3x3 input, 1x1x2x2 kernel of ones = sliding-window sums *)
  let x = Tensor.of_float_array [| 1; 1; 3; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  let w = Tensor.ones [| 1; 1; 2; 2 |] in
  let out = Ops_nn.conv2d x w in
  Alcotest.check tensor_eq "conv"
    (Tensor.of_float_array [| 1; 1; 2; 2 |] [| 12.; 16.; 24.; 28. |])
    out

let test_conv2d_padding_stride () =
  let x = Tensor.ones [| 1; 1; 4; 4 |] in
  let w = Tensor.ones [| 1; 1; 3; 3 |] in
  let out = Ops_nn.conv2d ~stride:2 ~padding:1 x w in
  Alcotest.(check (array int)) "shape" [| 1; 1; 2; 2 |] (Tensor.shape out);
  (* corner window covers 4 in-bounds ones *)
  Alcotest.(check (float 0.0)) "corner" 4.0 (Tensor.get out [| 0; 0; 0; 0 |])

let test_pooling () =
  let x = Tensor.of_float_array [| 1; 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let mx = Ops_nn.max_pool2d ~stride:2 ~window:2 x in
  Alcotest.(check (float 0.0)) "max" 4.0 (Tensor.item mx);
  let av = Ops_nn.avg_pool2d ~stride:2 ~window:2 x in
  Alcotest.(check (float 0.0)) "avg" 2.5 (Tensor.item av);
  let g = Ops_nn.global_avg_pool2d x in
  Alcotest.(check (array int)) "gap shape" [| 1; 1 |] (Tensor.shape g);
  Alcotest.(check (float 0.0)) "gap" 2.5 (Tensor.item g)

let test_embedding () =
  let table = Tensor.of_float_array [| 3; 2 |] [| 0.; 1.; 10.; 11.; 20.; 21. |] in
  let ids = Tensor.of_int_array [| 2 |] [| 2; 0 |] in
  Alcotest.check tensor_eq "lookup"
    (Tensor.of_float_array [| 2; 2 |] [| 20.; 21.; 0.; 1. |])
    (Ops_nn.embedding table ids)

let test_nms () =
  let boxes =
    Tensor.of_float_array [| 3; 5 |]
      [| 0.9; 0.; 0.; 10.; 10.; 0.8; 1.; 1.; 10.; 10.; 0.7; 50.; 50.; 60.; 60. |]
  in
  let out = Ops_nn.nms ~iou_threshold:0.5 boxes in
  Alcotest.(check int) "suppressed overlap" 2 (Tensor.shape out).(0);
  (* keeps highest score first *)
  Alcotest.(check (float 0.0)) "best kept" 0.9 (Tensor.get out [| 0; 0 |]);
  let all = Ops_nn.nms ~iou_threshold:0.99 boxes in
  Alcotest.(check int) "loose threshold keeps all" 3 (Tensor.shape all).(0)

(* ---------------------------- properties ---------------------------- *)

let small_shape_gen =
  QCheck.Gen.(list_size (int_range 1 3) (int_range 1 5) >|= Array.of_list)

let arb_shape = QCheck.make ~print:Shape.to_string small_shape_gen

let prop_broadcast_self =
  QCheck.Test.make ~name:"broadcast with self is identity" ~count:100 arb_shape (fun s ->
      match Shape.broadcast s s with Some out -> Shape.equal out s | None -> false)

let prop_broadcast_commutative =
  QCheck.Test.make ~name:"broadcast commutative" ~count:200
    (QCheck.pair arb_shape arb_shape) (fun (a, b) ->
      match (Shape.broadcast a b, Shape.broadcast b a) with
      | Some x, Some y -> Shape.equal x y
      | None, None -> true
      | _ -> false)

let prop_unravel_linear =
  QCheck.Test.make ~name:"unravel inverts linear_index" ~count:200 arb_shape (fun s ->
      let n = Shape.numel s in
      n = 0
      ||
      let rng = Rng.create ~seed:(Shape.numel s) in
      let i = Rng.int rng n in
      Shape.linear_index s (Index_loops.Shape.unravel s i) = i)

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative (same shape)" ~count:50 arb_shape (fun s ->
      let rng = Rng.create ~seed:7 in
      let a = Tensor.randn rng s and b = Tensor.randn rng s in
      Tensor.approx_equal (Ops_elem.add a b) (Ops_elem.add b a))

let prop_dense_distributes =
  QCheck.Test.make ~name:"dense distributes over +" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (m, n) ->
      let k = 6 in
      let rng = Rng.create ~seed:(m + (10 * n)) in
      let a = Tensor.randn rng [| m; k |] in
      let b = Tensor.randn rng [| m; k |] in
      let w = Tensor.randn rng [| n; k |] in
      Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4
        (Ops_matmul.dense (Ops_elem.add a b) w)
        (Ops_elem.add (Ops_matmul.dense a w) (Ops_matmul.dense b w)))

let prop_softmax_distribution =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:50
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (m, n) ->
      let rng = Rng.create ~seed:(m * n) in
      let x = Tensor.randn ~scale:3.0 rng [| m; n |] in
      let sums = Ops_reduce.sum ~axis:1 (Ops_nn.softmax ~axis:1 x) in
      Tensor.approx_equal ~atol:1e-5 ~rtol:1e-5 (Tensor.ones [| m |]) sums)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution (rank 2)" ~count:50
    QCheck.(pair (int_range 1 7) (int_range 1 7))
    (fun (m, n) ->
      let rng = Rng.create ~seed:(m + n) in
      let x = Tensor.randn rng [| m; n |] in
      Tensor.approx_equal x (Ops_shape.transpose (Ops_shape.transpose x)))

let prop_nms_upper_bound =
  QCheck.Test.make ~name:"nms output within upper bound" ~count:50
    (QCheck.int_range 1 12) (fun n ->
      let rng = Rng.create ~seed:n in
      let boxes = Tensor.rand_uniform rng ~lo:0.0 ~hi:20.0 [| n; 5 |] in
      let out = Ops_nn.nms boxes in
      (Tensor.shape out).(0) <= n)

(* ------------------- strided loop = index loops ------------------- *)

(* One random case: an operator call through lib/tensor ([fresh]) and
   through the index loops it replaced ([oracle]). *)
type oracle_case = {
  label : string;
  fresh : unit -> Tensor.t list;
  oracle : unit -> Tensor.t list;
}

(* Same shape, dtype and bits, NaN included. *)
let bitwise a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Dtype.equal (Tensor.dtype a) (Tensor.dtype b)
  &&
  match (a.Tensor.buf, b.Tensor.buf) with
  | Tensor.Floats x, Tensor.Floats y ->
      Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) x y
  | Tensor.Ints x, Tensor.Ints y -> x = y
  | _ -> false

(* Every case draws from [r]. Shapes have rank 0-4 and dims 0-4, or,
   one time in six, more elements than one parallel chunk. *)
let oracle_case seed =
  let r = Rng.create ~seed in
  let pick l = List.nth l (Rng.int r (List.length l)) in
  let dtype () = pick Dtype.[ F32; F64; I64; U8 ] in
  let tensor dt shape =
    let n = Shape.numel shape in
    let vals =
      Array.init n (fun _ ->
          match dt with
          | Dtype.U8 -> float_of_int (Rng.int r 256)
          | Dtype.I64 | Dtype.I32 -> float_of_int (Rng.int r 2001 - 1000)
          | Dtype.F32 | Dtype.F64 ->
              if Rng.int r 4 = 0 then float_of_int (Rng.int r 5 - 2) else Rng.normal r)
    in
    Tensor.of_float_array ~dtype:dt shape vals
  in
  let shape ?(min_rank = 0) () =
    let rank = min_rank + Rng.int r (5 - min_rank) in
    if rank > 0 && Rng.int r 6 = 0 then
      List.nth [ [| 16411 |]; [| 131; 127 |]; [| 17; 33; 31 |]; [| 5; 9; 19; 21 |] ] (rank - 1)
    else Array.init rank (fun _ -> if Rng.int r 10 = 0 then 0 else 1 + Rng.int r 4)
  in
  let big s = Shape.numel s > 256 in
  (* a shape that broadcasts to [s]: leading dims dropped, some dims 1 *)
  let broadcast_from s =
    let lead = Rng.int r (Array.length s + 1) in
    Array.map (fun d -> if Rng.int r 3 = 0 then 1 else d) (Array.sub s lead (Array.length s - lead))
  in
  let axis s = Rng.int r (Array.length s) - if Rng.int r 2 = 0 then Array.length s else 0 in
  let shows ts =
    let show t = Fmt.str "%a:%a" Shape.pp (Tensor.shape t) Dtype.pp (Tensor.dtype t) in
    String.concat " " (List.map show ts)
  in
  let case label fresh oracle = { label; fresh; oracle } in
  match Rng.int r 11 with
  | 0 ->
      let name, op, f, out_dtype =
        pick
          Ops_elem.
            [
              ("add", Add, ( +. ), None); ("subtract", Sub, ( -. ), None);
              ("multiply", Mul, ( *. ), None);
              ("divide", Div, (fun x y -> if y = 0.0 then Float.nan else x /. y), None);
              ("maximum", Max, Float.max, None); ("power", Pow, Float.pow, None);
              ("less", Lt, (fun x y -> if x < y then 1.0 else 0.0), Some Dtype.U8);
              ("equal", Eq, (fun x y -> if x = y then 1.0 else 0.0), Some Dtype.U8);
            ]
      in
      let s = shape () in
      let a = tensor (dtype ()) (broadcast_from s) and b = tensor (dtype ()) s in
      let a, b = if Rng.int r 2 = 0 then (a, b) else (b, a) in
      case (Fmt.str "binop %s %s" name (shows [ a; b ]))
        (fun () -> [ Ops_elem.binop op a b ])
        (fun () -> [ Index_loops.binop ?out_dtype name f a b ])
  | 1 ->
      let s = shape () in
      let cond = tensor (pick Dtype.[ U8; F32 ]) (broadcast_from s) in
      let a = tensor (dtype ()) (broadcast_from s) and b = tensor (dtype ()) s in
      case (Fmt.str "where %s" (shows [ cond; a; b ]))
        (fun () -> [ Ops_elem.where cond a b ])
        (fun () -> [ Index_loops.where cond a b ])
  | 2 ->
      let a = tensor (dtype ()) (shape ()) in
      let rank = Tensor.rank a in
      let axes =
        if Rng.int r 4 = 0 then None
        else begin
          let p = Array.init rank Fun.id in
          for i = rank - 1 downto 1 do
            let j = Rng.int r (i + 1) in
            let t = p.(i) in
            p.(i) <- p.(j);
            p.(j) <- t
          done;
          Some (Array.map (fun ax -> if Rng.int r 2 = 0 then ax - rank else ax) p)
        end
      in
      case (Fmt.str "transpose %s" (shows [ a ]))
        (fun () -> [ Ops_shape.transpose ?axes a ])
        (fun () -> [ Index_loops.transpose ?axes a ])
  | 3 ->
      let s = shape ~min_rank:1 () in
      let ax = axis s in
      let norm = Shape.normalize_axis ~rank:(Array.length s) ax in
      let dt = dtype () in
      let ts =
        List.init (1 + Rng.int r 3) (fun _ ->
            let s = Array.copy s in
            if not (big s) then s.(norm) <- Rng.int r 4;
            tensor (if Rng.int r 4 = 0 then dtype () else dt) s)
      in
      case (Fmt.str "concat axis=%d %s" ax (shows ts))
        (fun () -> [ Ops_shape.concat ~axis:ax ts ])
        (fun () -> [ Index_loops.concat ~axis:ax ts ])
  | 4 ->
      let s = shape ~min_rank:1 () in
      let ax = axis s in
      let norm = Shape.normalize_axis ~rank:(Array.length s) ax in
      let sections = 1 + Rng.int r 3 in
      if not (big s) then s.(norm) <- sections * Rng.int r 3;
      let sections = if s.(norm) mod sections = 0 then sections else 1 in
      let a = tensor (dtype ()) s in
      case (Fmt.str "split axis=%d sections=%d %s" ax sections (shows [ a ]))
        (fun () -> Ops_shape.split ~axis:ax ~sections a)
        (fun () -> Index_loops.split ~axis:ax ~sections a)
  | 5 ->
      let s = shape () in
      let a = tensor (dtype ()) s in
      let bound d = Rng.int r (2 * d + 5) - d - 2 in
      let begins = Array.map bound s and ends = Array.map bound s in
      case
        (Fmt.str "strided_slice %s begins=%a ends=%a" (shows [ a ]) Shape.pp begins Shape.pp ends)
        (fun () -> [ Ops_shape.strided_slice ~begins ~ends a ])
        (fun () -> [ Index_loops.strided_slice ~begins ~ends a ])
  | 6 ->
      let s = shape ~min_rank:1 () in
      let ax = axis s in
      let norm = Shape.normalize_axis ~rank:(Array.length s) ax in
      if s.(norm) = 0 then s.(norm) <- 1;
      let data = tensor (dtype ()) s in
      let is = Array.init (Rng.int r 3) (fun _ -> Rng.int r 4) in
      let d = s.(norm) in
      let indices =
        Tensor.of_int_array ~dtype:(pick Dtype.[ I64; I32 ]) is
          (Array.init (Shape.numel is) (fun _ -> Rng.int r (2 * d) - d))
      in
      case (Fmt.str "take axis=%d %s" ax (shows [ data; indices ]))
        (fun () -> [ Ops_shape.take ~axis:ax data indices ])
        (fun () -> [ Index_loops.take ~axis:ax data indices ])
  | 7 ->
      let s = shape () in
      (* a big shape repeats along its first dim only, so the oracle stays quick *)
      let rep i = if not (big s) then Rng.int r 4 else if i = 0 then 1 + Rng.int r 2 else 1 in
      let reps = Array.mapi (fun i _ -> rep i) s in
      let a = tensor (dtype ()) s in
      case (Fmt.str "tile %s reps=%a" (shows [ a ]) Shape.pp reps)
        (fun () -> [ Ops_shape.tile ~reps a ])
        (fun () -> [ Index_loops.tile ~reps a ])
  | 8 ->
      let s = shape ~min_rank:1 () in
      let ax = axis s and keepdims = Rng.int r 2 = 0 in
      let name, init, f =
        pick
          [ ("sum", 0.0, ( +. )); ("max", Float.neg_infinity, Float.max);
            ("min", Float.infinity, Float.min) ]
      in
      let a = tensor (dtype ()) s in
      case (Fmt.str "%s axis=%d keepdims=%b %s" name ax keepdims (shows [ a ]))
        (fun () -> [ Ops_reduce.reduce_axis init f ~keepdims ~axis:ax a ])
        (fun () -> [ Index_loops.reduce_axis name init f ~keepdims ~axis:ax a ])
  | 9 ->
      let s = shape ~min_rank:1 () in
      let ax = axis s in
      let a = tensor (dtype ()) s in
      case (Fmt.str "argmax axis=%d %s" ax (shows [ a ]))
        (fun () -> [ Ops_reduce.argmax ~axis:ax a ])
        (fun () -> [ Index_loops.argmax ~axis:ax a ])
  | _ ->
      let s = shape () and dtype = dtype () in
      let f idx = Array.fold_left (fun acc i -> (acc *. 7.0) +. float_of_int i) 0.5 idx in
      case (Fmt.str "init %a %a" Shape.pp s Dtype.pp dtype)
        (fun () -> [ Tensor.init ~dtype s f ])
        (fun () -> [ Index_loops.init ~dtype s f ])

let prop_strided_matches_index_loops =
  QCheck.Test.make ~name:"strided loop = index loops, bitwise" ~count:600
    (QCheck.make
       ~print:(fun seed -> Fmt.str "seed %d: %s" seed (oracle_case seed).label)
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let c = oracle_case seed in
      let outcome run = try Ok (run ()) with e -> Error (Printexc.to_string e) in
      match (outcome c.fresh, outcome c.oracle) with
      | Ok xs, Ok ys -> List.length xs = List.length ys && List.for_all2 bitwise xs ys
      | Error _, Error _ -> true
      | Ok _, Error e -> QCheck.Test.fail_reportf "only the index loops raise: %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "only the strided loop raises: %s" e)

(* ------------------ matmul driver = old loops ------------------ *)

module Dk = Nimble_codegen.Dense_kernels

(* Every entry point of the matmul driver against the loop it replaced
   (Matmul_loops), on one random shape: [m] up to 70, skewed to 0, 1,
   below 8 and multiples of 8 and their neighbours; [n] never a multiple
   of four; [k] including 0 and 1; batch 1-5; one case in four above the
   parallel grain. Integer operands hold values a float holds exactly;
   the Dense_kernels loops rejected them, so there the oracle is the old
   [dense]. *)
let matmul_cases seed =
  let r = Rng.create ~seed in
  let pick l = List.nth l (Rng.int r (List.length l)) in
  let m =
    pick [ 0; 1; 1; 2; 3; 5; 7; 8; 9; 15; 16; 17; 23; 24; 25; 39; 40; 41; 63; 64; 65; 70; Rng.int r 71 ]
  in
  let n, k =
    if Rng.int r 4 = 0 then (pick [ 129; 131 ], pick [ 127; 129 ])
    else (pick [ 1; 2; 3; 5; 6; 7; 9; 10; 13; 31; 33 ], pick [ 0; 1; 2; 3; 7; 8; 17; 32; 33 ])
  in
  let batch = 1 + Rng.int r 5 in
  let ints = Rng.int r 3 = 0 in
  let tensor shape =
    let vals =
      Array.init (Shape.numel shape) (fun _ ->
          if ints then float_of_int (Rng.int r 2001 - 1000) else Rng.normal r)
    in
    Tensor.of_float_array ~dtype:(if ints then Dtype.I64 else Dtype.F32) shape vals
  in
  let a = tensor [| m; k |] and w = tensor [| n; k |] and b = tensor [| k; n |] in
  let bias = tensor [| n |] and ba = tensor [| batch; m; k |] and bb = tensor [| batch; k; n |] in
  let kernel f = if ints then Matmul_loops.dense a w else f a w in
  let label = Fmt.str "m=%d n=%d k=%d batch=%d %s" m n k batch (if ints then "i64" else "f32") in
  ( label,
    [
      ("dense", Ops_matmul.dense a w, Matmul_loops.dense a w);
      ("matmul", Ops_matmul.matmul a b, Matmul_loops.matmul a b);
      ("batch_matmul", Ops_matmul.batch_matmul ba bb, Matmul_loops.batch_matmul ba bb);
      ("dense_bias", Ops_matmul.dense_bias a w bias, Matmul_loops.dense_bias a w bias);
      ( "residue",
        Dk.residue_kernel ~residue:(m mod 8) a w,
        kernel (Matmul_loops.residue_kernel ~residue:(m mod 8)) );
      ("guarded", Dk.guarded_kernel a w, kernel Matmul_loops.guarded_kernel);
      ("extern", Dk.extern_library_kernel a w, kernel Matmul_loops.extern_library_kernel);
    ]
    @ List.map
        (fun tile_m ->
          ( Fmt.str "tuned tile_m=%d" tile_m,
            Dk.tiled_kernel ~tile_m a w,
            kernel (Matmul_loops.tiled_kernel ~tile_m) ))
        [ 1; 2; 3; 4; 8; 16; 256 ] )

let prop_matmul_matches_old_loops =
  QCheck.Test.make ~name:"matmul driver = old loops, bitwise" ~count:200
    (QCheck.make
       ~print:(fun seed -> Fmt.str "seed %d: %s" seed (fst (matmul_cases seed)))
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      List.for_all
        (fun (name, fresh, old) ->
          bitwise fresh old || QCheck.Test.fail_reportf "%s differs from its old loop" name)
        (snd (matmul_cases seed)))

(* An integer beyond 2^53 has no exact float: copy and select operators
   move it as an integer. *)
let test_large_ints_copied_exactly () =
  let big = (1 lsl 53) + 1 in
  let t = Tensor.of_int_array [| 2; 2 |] [| big; -big; big + 2; 7 |] in
  let row = Tensor.of_int_array [| 1; 2 |] [| big; -big |] in
  let has name out =
    Alcotest.(check bool) (name ^ " keeps 2^53+1") true
      (Array.mem big (Tensor.to_int_array out))
  in
  has "transpose" (Ops_shape.transpose t);
  has "concat" (Ops_shape.concat ~axis:0 [ t; t ]);
  List.iter (has "split") (Ops_shape.split ~axis:1 ~sections:1 t);
  has "strided_slice" (Ops_shape.strided_slice ~begins:[| 0; 0 |] ~ends:[| 1; 1 |] t);
  has "tile" (Ops_shape.tile ~reps:[| 2; 1 |] t);
  has "take" (Ops_shape.take t (Tensor.of_int_array [| 1 |] [| 0 |]));
  has "stack" (Ops_shape.stack [ row; row ]);
  has "where" (Ops_elem.where (Tensor.ones ~dtype:Dtype.U8 [| 2; 2 |]) t t)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_broadcast_self;
      prop_broadcast_commutative;
      prop_unravel_linear;
      prop_add_commutative;
      prop_dense_distributes;
      prop_softmax_distribution;
      prop_transpose_involution;
      prop_nms_upper_bound;
      prop_strided_matches_index_loops;
      prop_matmul_matches_old_loops;
    ]

let () =
  Alcotest.run "tensor"
    [
      ( "shape",
        [
          Alcotest.test_case "numel/rank" `Quick test_numel_rank;
          Alcotest.test_case "strides" `Quick test_strides;
          Alcotest.test_case "linear/unravel" `Quick test_linear_unravel;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "reshape -1" `Quick test_reshape_resolve;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "create/fill" `Quick test_create_fill;
          Alcotest.test_case "dtype roundtrip" `Quick test_dtype_roundtrip;
          Alcotest.test_case "u8 wraps" `Quick test_u8_wraps;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent;
          Alcotest.test_case "blit" `Quick test_blit;
        ] );
      ( "elementwise",
        [
          Alcotest.test_case "broadcast add" `Quick test_add_broadcast;
          Alcotest.test_case "activations" `Quick test_activations;
          Alcotest.test_case "comparisons" `Quick test_comparisons_bool_dtype;
          Alcotest.test_case "where" `Quick test_where;
          Alcotest.test_case "erf" `Quick test_erf_reference_points;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "dense vs naive" `Quick test_dense_matches_naive;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "batch matmul" `Quick test_batch_matmul;
          Alcotest.test_case "dense+bias" `Quick test_dense_bias;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "sum/mean/max/min" `Quick test_reductions;
          Alcotest.test_case "integer axis max/min" `Quick test_integer_axis_max_min;
          Alcotest.test_case "argmax" `Quick test_argmax;
        ] );
      ( "shape_ops",
        [
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "transpose axes" `Quick test_transpose_axes;
          Alcotest.test_case "concat/split roundtrip" `Quick test_concat_split_roundtrip;
          Alcotest.test_case "strided slice" `Quick test_slice;
          Alcotest.test_case "take" `Quick test_take;
          Alcotest.test_case "arange/unique" `Quick test_arange_unique;
          Alcotest.test_case "tile/stack" `Quick test_tile_stack;
          Alcotest.test_case "large ints copied exactly" `Quick test_large_ints_copied_exactly;
        ] );
      ( "nn_ops",
        [
          Alcotest.test_case "softmax" `Quick test_softmax;
          Alcotest.test_case "layer norm" `Quick test_layer_norm;
          Alcotest.test_case "conv2d known values" `Quick test_conv2d_known;
          Alcotest.test_case "conv2d padding/stride" `Quick test_conv2d_padding_stride;
          Alcotest.test_case "pooling" `Quick test_pooling;
          Alcotest.test_case "embedding" `Quick test_embedding;
          Alcotest.test_case "nms" `Quick test_nms;
        ] );
      ("properties", props);
    ]
