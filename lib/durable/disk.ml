type stats = {
  mutable appends : int;
  mutable syncs : int;
  mutable synced_bytes : int;
  mutable checkpoints : int;
  mutable truncated_records : int;
  mutable torn_discarded : int;
}

(* The durable image is a flat byte buffer of frames; the unsynced tail
   is a queue of payloads framed as they are flushed into it. A frame
   is [len:4][crc:4][payload], both header ints big-endian. [synced]
   shadows the image's payloads so sealing never rescans. *)
(* A checkpoint segment is either a snapshot payload the caller
   marshaled, or a sealed log image adopted wholesale — the framed
   records themselves become the checkpoint, no re-marshal. *)
type segment = Snapshot of bytes | Sealed of bytes list

type t = {
  mutable image : Buffer.t;
  mutable tail : bytes list; (* payloads, newest first; framed at sync *)
  mutable synced : bytes list; (* synced payloads, newest first *)
  mutable ck_segments : segment list;
      (* checkpoint segments, newest first: adding one is O(1) *)
  mutable image_records : int; (* complete frames synced into [image] *)
  stats : stats;
}

let create () =
  { image = Buffer.create 256; tail = []; synced = []; ck_segments = [];
    image_records = 0;
    stats =
      { appends = 0; syncs = 0; synced_bytes = 0; checkpoints = 0;
        truncated_records = 0; torn_discarded = 0 } }

(* The runtime's MurmurHash3 (caml_hash mixes every byte of a string,
   in C): a 30-bit detection code computed at memory bandwidth, an
   order of magnitude cheaper than a byte-at-a-time OCaml loop. Frames
   never outlive the process, so cross-version stability is moot. *)
let checksum payload = Hashtbl.hash (Bytes.unsafe_to_string payload)

let frame payload =
  let n = Bytes.length payload in
  let f = Bytes.create (8 + n) in
  Bytes.set_int32_be f 0 (Int32.of_int n);
  Bytes.set_int32_be f 4 (Int32.of_int (checksum payload));
  Bytes.blit payload 0 f 8 n;
  f

(* Takes ownership of [payload]: appended bytes must not be mutated
   afterwards (the caller marshals a fresh buffer per record). *)
let append t payload =
  t.stats.appends <- t.stats.appends + 1;
  t.tail <- payload :: t.tail

let pending t = List.length t.tail

let sync t =
  if t.tail <> [] then begin
    List.iter
      (fun payload ->
        (* Frame straight into the image: header ints, then the payload,
           with no intermediate frame allocation. *)
        let n = Bytes.length payload in
        Buffer.add_int32_be t.image (Int32.of_int n);
        Buffer.add_int32_be t.image (Int32.of_int (checksum payload));
        Buffer.add_bytes t.image payload;
        t.synced <- payload :: t.synced;
        t.image_records <- t.image_records + 1;
        t.stats.synced_bytes <- t.stats.synced_bytes + 8 + n)
      (List.rev t.tail);
    t.tail <- [];
    t.stats.syncs <- t.stats.syncs + 1
  end

let crash t =
  (match List.rev t.tail with
  | [] -> ()
  | oldest :: _ ->
    (* Torn write: half of the first in-flight frame reaches the platter
       before the power goes; the rest of the batch never does. *)
    let f = frame oldest in
    Buffer.add_subbytes t.image f 0 (Bytes.length f / 2));
  t.tail <- []

(* Walk the image, yielding valid frames; [bad] is the offset of the
   first frame that fails validation (= length of the valid prefix). *)
let scan image =
  let len = Bytes.length image in
  let rec go off acc =
    if off + 8 > len then (off, List.rev acc)
    else begin
      let n = Int32.to_int (Bytes.get_int32_be image off) in
      if n < 0 || off + 8 + n > len then (off, List.rev acc)
      else begin
        let crc = Int32.to_int (Bytes.get_int32_be image (off + 4)) in
        let payload = Bytes.sub image (off + 8) n in
        if checksum payload <> crc then (off, List.rev acc)
        else go (off + 8 + n) (payload :: acc)
      end
    end
  in
  go 0 []

(* Tracked incrementally ([sync] counts frames in, truncation and
   recovery reset it) so checkpoints never rescan the image. A torn
   crash prefix never counts: it is not a complete frame. *)
let durable_records t = t.image_records

(* Both checkpoint flavors swallow the log: records covered by the
   checkpoint image no longer need replaying, so the WAL restarts empty. *)
let truncate_log t =
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  t.stats.truncated_records <- t.stats.truncated_records + t.image_records;
  t.image <- Buffer.create 256;
  t.image_records <- 0;
  t.synced <- [];
  t.tail <- []

let write_checkpoint t payload =
  t.ck_segments <- [ Snapshot (Bytes.copy payload) ];
  truncate_log t

(* Incremental checkpoint: append a delta segment instead of rewriting
   the whole image. Cost is proportional to what changed since the last
   checkpoint, not to total history — the difference between O(n) and
   O(n^2) marshaling over the life of the process. *)
let add_checkpoint t payload =
  t.ck_segments <- Snapshot (Bytes.copy payload) :: t.ck_segments;
  truncate_log t

(* Zero-copy incremental checkpoint: sync, then adopt the synced
   payloads wholesale as the next segment. They ARE the delta since the
   previous checkpoint, so nothing is re-marshaled, re-framed, or even
   rescanned — sealing is a pointer swap. *)
let seal_checkpoint t =
  sync t;
  if t.synced <> [] then
    t.ck_segments <- Sealed (List.rev t.synced) :: t.ck_segments;
  truncate_log t

let recover t =
  let image = Buffer.to_bytes t.image in
  let valid, records = scan image in
  if valid < Bytes.length image then begin
    (* Torn or corrupt tail: cut the image back to the valid prefix so
       post-recovery appends extend a clean log. *)
    t.stats.torn_discarded <- t.stats.torn_discarded + 1;
    let trimmed = Buffer.create (max 256 valid) in
    Buffer.add_subbytes trimmed image 0 valid;
    t.image <- trimmed
  end;
  t.image_records <- List.length records;
  t.synced <- List.rev records;
  t.tail <- [];
  (List.rev t.ck_segments, records)

let stats t = t.stats
