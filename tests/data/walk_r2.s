  loadlabel r0, .L0
  loadimm r1, 0
  store fv5, r0
  loadimm r0, 6
  store fv0, r0
  load r0, fv5
  store fv6, r0
  loadimm r0, 1
  store fv1, r0
  load r0, fv6
  store fv7, r0
  loadimm r0, 0
  store fv2, r0
  load r0, fv7
  store fv8, r0
  loadimm r0, 31
  store fv3, r0
  load r0, fv8
  store fv9, r0
  loadimm r0, 32
  store fv4, r0
  load r0, fv9
  jmp walk
.L0:
  halt
walk:
  store fv5, r0
  load r0, fv0
  bge r1, r0, .L1
  load r0, fv2
  mload r0, r0, r1
  store fv6, r1
  load r1, fv1
  store fv7, r0
  load r0, fv3
  mul r1, r1, r0
  load r0, fv7
  add r0, r1, r0
  load r1, fv6
  add r1, r1, 1
  store fv8, r0
  load r0, fv5
  store fv1, r0
  load r0, fv8
  store fv9, r0
  load r0, fv2
  store fv5, r0
  load r0, fv9
  store fv10, r0
  load r0, fv6
  store fv2, r0
  load r0, fv10
  store fv11, r0
  load r0, fv3
  store fv6, r0
  load r0, fv11
  store fv12, r0
  load r0, fv0
  store fv3, r0
  load r0, fv12
  store fv13, r0
  load r0, fv4
  store fv0, r0
  load r0, fv13
  store fv14, r0
  load r0, fv4
  store fv7, r0
  load r0, fv14
  store fv4, r0
  loadlabel r0, .L2
  fp+= 3
  jmp walk
.L2:
  fp+= -3
  load r0, fv0
  store fv3, r1
  load r1, fv2
  add r0, r0, r1
  load r1, fv3
  mstore r0, 0, r1
  load r0, fv1
  jmp r0
.L1:
  load r0, fv5
  load r1, fv1
  jmp r0
